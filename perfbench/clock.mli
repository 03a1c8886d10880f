(** Clocks and allocation counters shared by the benchmark. *)

val now_ns : unit -> int
(** [CLOCK_MONOTONIC] in nanoseconds; does not allocate. *)

val now_s : unit -> float
(** {!now_ns} in seconds. *)

val seconds : int -> float
(** Nanoseconds to seconds. *)

val alloc_words : unit -> float
(** Words allocated so far by the calling domain:
    [minor + major - promoted] from [Gc.counters].  OCaml 5.1 keeps
    these counters per domain, so work done on other domains is not
    included. *)
