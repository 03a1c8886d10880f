(** A wrapping {!Engine.Engine_sig.ENGINE} that measures the layers of a
    simulation run from outside the program.

    [wrap probe engine] runs every call through [engine] unchanged.
    It times the engine's calls into the adversary closure and, when
    the probe is [traced], into the protocol module's [send],
    [receive] and [intent], recording wall time and the calling
    domain's [Gc.minor_words] delta per call.  Broadcast protocols keep
    their plane capability, so an engine that runs the plane kernel
    still makes no protocol calls.

    Traced or not, the probe timestamps the first adversary call of
    each run: the end of engine setup.  Protocol counters are atomic,
    so a sharded engine may call [send] and [receive] from its worker
    domains. *)

type t

exception Setup_reached
(** Raised from the first adversary call when {!set_stop_at_setup} is
    on, so a caller can time setup without running the rounds. *)

val create : traced:bool -> t
val reset : t -> unit
val wrap : t -> (module Engine.Engine_sig.ENGINE) -> (module Engine.Engine_sig.ENGINE)

val set_stop_at_setup : t -> bool -> unit

val first_adversary_ns : t -> int
(** {!Clock.now_ns} at the first adversary call of the latest run, or
    0 if it has not happened. *)

val round_latencies : t -> float array
(** Wall time of each round of the latest run, from its adversary call
    to the next one (the last round ends when the run returns). *)

type totals = { seconds : float; calls : int; mwords : float }

type summary = {
  adversary : totals;
  send : totals;
  receive : totals;
  intent : totals;
  run_s : float;  (** engine entry to return, summed over runs *)
  setup_s : float;  (** engine entry to first adversary call *)
  engine_self_s : float;  (** [run_s] minus the wrapped calls *)
  engine_mwords : float;
      (** minor words of the runs on the coordinating domain, minus the
          wrapped calls *)
  words_after_setup : float;
      (** [minor + major - promoted] words from the first adversary call
          to return, on the coordinating domain *)
  cpu_after_setup_s : float;  (** process CPU time over the same span *)
  rounds : int;
}

val summary : t -> summary
(** Totals since the last {!reset}. *)
