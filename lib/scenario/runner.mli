(** Executing a validated {!Spec} — the scenario subsystem's engine room.

    [run] turns one spec into one {!Obs.Report.t} per repeat:

    - the environment is materialized once ([trace] envs load their
      {!Trace_io.t} up front, relative paths resolving against
      [base_dir]);
    - repeat [i] derives every random stream from [spec.seed + i]
      alone and builds its own fresh {!Adversary.Schedule.t}, so the
      repeats are independent points and run through
      {!Analysis.Sweep.map} ([?jobs]) with bit-identical output
      whatever the parallelism;
    - instance construction, fault-plan wiring, and per-algorithm
      round caps are decided here alone: [dynspread run] and
      [dynspread sweep] compile their flags into a spec and run it
      through this module, so a scenario file and a CLI invocation are
      the same run;
    - each report is named [<name>/<algorithm>/seed=<seed+i>] — the
      label depends only on the spec's name, algorithm, and seed,
      never on how the environment is represented, so a run against a
      built-in oblivious family and a run against its {!Record}ed
      trace produce byte-identical JSON.

    Trace environments replay with {!Replay.Loop} semantics: real
    contact data is finite and bursty, and looping it is the standard
    periodic-workload reading.  A recording that covers the full run
    never reaches the loop, which is what the record→replay
    reproducibility guarantee relies on.

    Because a looped trace is periodic, trace runs also arm the
    engines' livelock detector with {!stall_window}: a deterministic
    protocol limit-cycling against the period (the E17 [s >= 6]
    min-source corner) ends with a [Stalled] outcome after the window
    instead of spinning to its round cap. *)

val stall_window : period:int -> n:int -> k:int -> int
(** [max 64 (max (2 * period) (2 * n * k))] — the [stall_after]
    window used for looped-trace runs: at least two full schedule
    periods and two full flooding phase cycles, so no live protocol
    can trip it, while staying far below the unicast round cap. *)

val instance :
  Spec.algorithm -> n:int -> k:int -> s:int -> seed:int -> Gossip.Instance.t
(** Token placement for one run: source 0 for [single-source] and for
    [s <= 1], otherwise a random assignment of [min s (min n k)]
    sources seeded by [seed + 1]. *)

val fault_plan : Spec.faults option -> seed:int -> Faults.Plan.t
(** The fault plan a spec's [faults] block describes
    ({!Faults.Plan.none} for [None]); the fault seed defaults to the
    run's [seed]. *)

val builtin_schedule :
  env:Spec.env -> sigma:int -> n:int -> seed:int ->
  Adversary.Schedule.t option
(** The committed schedule for a built-in oblivious env ([extra]
    defaults to [n], [p_up] to [2/n]; [sigma > 1] wraps the family in
    {!Adversary.Schedule.stabilized}).  [None] for the two
    non-committed envs ([trace] — use {!Replay.schedule} — and the
    adaptive [request-cutter]). *)

val resolve_trace :
  ?base_dir:string -> Spec.t -> (Trace_io.t option, string) result
(** Load the spec's trace, if its env is one ([Ok None] otherwise).
    Relative paths resolve against [base_dir] (default ["."] — pass
    the spec file's directory).  Checks the trace against [spec.n]
    when both are present. *)

type prepared = {
  spec : Spec.t;
  trace : Trace_io.t option;
  n : int;  (** Resolved node count (from the spec or its trace). *)
  seeds : int array;  (** [spec.seed + i] for repeat [i], in order. *)
}
(** A spec with its environment materialized — the resumable,
    cancellable unit the serve scheduler works in.  Preparing is the
    only fallible step; every repeat after that is a pure function of
    [(prepared, seed)]. *)

val prepare : ?base_dir:string -> Spec.t -> (prepared, string) result
(** Materialize the environment: load and check the trace (if the env
    is one; relative paths resolve against [base_dir], default ["."]),
    resolve [n], and lay out the per-repeat seeds.  [Error] covers
    exactly the materialization failures [run] reports. *)

val report : Spec.t -> n:int -> seed:int -> Engine.Run_result.t -> Obs.Report.t
(** The run report of one repeat: named [<name>/<algorithm>/seed=<seed>],
    with the extras [n], [k], [s], [seed] and [amortized_per_token].
    Exported so run shapes no spec can express (the CLI's [--reliable]
    wrapper and lower-bound adversary) report like every other run. *)

val unicast_env : prepared -> seed:int -> Gossip.Runners.unicast_env
(** The unicast environment of one repeat: the adaptive request-cutter
    for a [request-cutter] env, otherwise the committed schedule (a
    looped trace replay or {!builtin_schedule}). *)

val run_repeat :
  ?prof:Obs.Span.t ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  ?obs:Obs.Sink.t ->
  ?cancel:(unit -> bool) ->
  prepared ->
  seed:int ->
  Obs.Report.t
(** One repeat of a prepared spec — the report depends only on
    [(prepared, seed)], never on which domain ran it or what ran
    before, which is what makes the daemon's reports byte-identical to
    [dynspread scenario run]'s.  [?obs] (default {!Obs.Sink.null})
    receives the repeat's trace events (the serve daemon's [subscribe]
    stream).  [?cancel] is the engines' round-boundary
    cooperative-cancellation poll: a repeat cancelled before its first
    round reports [Cancelled] with zero rounds; [oblivious-rw] (not
    engine-parametric) checks only at repeat entry. *)

val run_prepared :
  ?jobs:int ->
  ?prof:Obs.Span.t ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  ?cancel:(unit -> bool) ->
  prepared ->
  Obs.Report.t array
(** Every repeat of a prepared spec through one
    {!Analysis.Sweep.map_span} sweep named [scenario/<name>], in
    repeat order — the second half of [run]. *)

val run :
  ?jobs:int ->
  ?base_dir:string ->
  ?prof:Obs.Span.t ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  ?cancel:(unit -> bool) ->
  Spec.t ->
  (Obs.Report.t array, string) result
(** [prepare] then [run_prepared]: execute every repeat and return the
    run reports in repeat order.
    [?engine] (default {!Engine.Default.engine}) selects the execution
    engine for the engine-parametric algorithms (flooding,
    single-source, multi-source); reports are engine-independent, so
    passing {!Engine.Soa.engine} changes only the wall-clock.
    [?prof] (default {!Obs.Span.null}) profiles the whole run as one
    {!Analysis.Sweep.map_span} sweep named [scenario/<name>]: each
    repeat is a [point] span, and the engine round/phase spans of the
    repeat nest beneath it in the lane of the domain that executed it.
    [?cancel] (default: off) is polled at round boundaries; cancelled
    repeats report a [Cancelled] outcome with their partial coverage.
    [Error] covers environment problems surfaced at materialization
    time (unreadable or invalid trace, node-count mismatch); protocol
    or adversary violations during a run propagate as the engines'
    usual exceptions. *)
