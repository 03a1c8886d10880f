(** One differential-fuzz test case: the full input of a run, engine
    left out.

    A case is everything both engines are fed identically — algorithm,
    instance shape [(n, k, s)], seed, optional round cap and fault
    plan, and the concrete per-round graph sequence (round 1 first,
    replayed with {!Scenario.Replay.Loop} past the end).  A case is a
    [dynspread-scenario/v1] spec ({!to_spec}) plus its trace
    ({!to_trace}), and {!Diff} runs exactly that pair through
    {!Scenario.Runner}, so a saved counterexample reproduces through
    [dynspread scenario run] exactly as it did inside the fuzzer. *)

type t = {
  id : int;  (** Position in the campaign; names corpus files. *)
  algorithm : Scenario.Spec.algorithm;
      (** Flooding, single-source or multi-source; never
          [Oblivious_rw], which is not engine-parametric. *)
  n : int;
  k : int;
  s : int;  (** Source count; meaningful for [Multi_source] only. *)
  seed : int;  (** Seeds the instance assignment and the fault RNG. *)
  max_rounds : int option;  (** [None]: the runners' default caps. *)
  faults : Scenario.Spec.faults option;
  rounds : Dynet.Graph.t list;  (** Round graphs, round 1 first. *)
}

val period : t -> int
(** Number of round graphs (the looped schedule's period). *)

val to_trace : t -> Scenario.Trace_io.t
(** The case's schedule as a [dynspread-trace/v1] document
    (provenance ["fuzz"], the case seed as trace seed). *)

val to_spec : t -> trace_path:string -> Scenario.Spec.t
(** The [dynspread-scenario/v1] spec that replays this case against
    the trace saved at [trace_path] (as recorded in the spec's env). *)

val of_spec :
  Scenario.Spec.t -> trace:Scenario.Trace_io.t -> (t, string) result
(** Rebuild a case from a saved spec + trace pair (the corpus format).
    [Error] on [Oblivious_rw] specs (not a differential algorithm),
    [sigma > 1] (the runner would stabilize the trace) and empty
    traces. *)

val connected : t -> bool
(** Whether every round graph is connected — the generator's
    invariant, checked by tests and the corpus loader. *)
