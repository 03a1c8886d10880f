(** CPU affinity of the calling thread (Linux [sched_setaffinity]). *)

val allowed_cpus : unit -> int list
(** The CPUs the calling thread may run on, in increasing order; empty
    when the kernel does not say. *)

val pin : int -> bool
(** [pin cpu] restricts the calling thread, and every process it spawns
    afterwards, to [cpu].  False when the kernel refuses. *)
