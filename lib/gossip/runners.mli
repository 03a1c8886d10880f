(** One-call experiment runners: protocol × adversary × instance.

    This is the library's front door.  Each function wires a protocol
    to an adversary and an instance, picks sound default round caps
    (generous multiples of the paper's proved round bounds), runs the
    engine, and returns the {!Engine.Run_result.t} plus the final node
    states for inspection.

    Every runner forwards an optional [?obs] event sink to the engine
    (default {!Obs.Sink.null}, costing nothing); pass
    {!Obs.Sink.Memory} or {!Obs.Sink.Jsonl} to capture the per-round
    {!Obs.Trace} stream.

    Every runner also forwards an optional [?prof] span profiler to
    the engine (default {!Obs.Span.null}, costing one hoisted boolean
    test); pass an {!Obs.Span.create}d profiler to capture
    hierarchical round/phase spans — see the engine docs for the span
    tree.

    Runners on the schedule-driven engines likewise forward an
    optional [?faults] plan (default {!Faults.Plan.none}, costing
    nothing): pass a {!Faults.Plan.make} to inject message loss /
    duplication / delay and node crash-restart.  Each such runner
    declares its full-dissemination progress target to the engine, so
    capped runs come back as [Partial] with a coverage fraction
    instead of a bare failure bit.  The lower-bound runners
    ({!flooding_vs_lower_bound}, {!greedy_vs_lower_bound}) model a
    worst-case {e adversary}, not a faulty {e environment}, and take
    no fault plan.

    The workhorse runners ({!single_source}, {!multi_source},
    {!flooding}) also forward the engines' [?on_graph] recorder hook,
    so {!Scenario.Record} (in [lib/scenario]) can capture the realized
    round-graph sequence of any run — including adaptive environments
    like the request-cutter — into a replayable trace.

    The workhorse runners are additionally {e engine-parametric}: the
    optional [?engine] (default {!Engine.Default.engine}) selects the
    {!Engine.Engine_sig.ENGINE} implementation that executes the run —
    pass {!Engine.Reference.engine} for the pseudocode-faithful
    baseline the differential fuzzer checks against.  They also
    forward the engines' [?stall_after] livelock window, which
    {!Scenario.Runner} arms on looped-trace environments so a
    deterministic protocol limit-cycling against a periodic schedule
    reports [Stalled] instead of spinning to its round cap, and the
    engines' [?cancel] cooperative-cancellation poll, which the serve
    scheduler uses to stop a running job at the next round boundary
    with a [Cancelled] outcome. *)

type unicast_env =
  | Oblivious of Adversary.Schedule.t
      (** A pre-committed topology schedule. *)
  | Request_cutting of { seed : int; cut_prob : float }
      (** The adaptive {!Adversary.Request_cutter}. *)

val default_unicast_cap : n:int -> k:int -> int
(** [4nk + 4n² + 64]: well above the O(nk) bound of Theorems 3.4/3.6,
    with slack for unstable schedules. *)

val default_broadcast_cap : n:int -> k:int -> int
(** [nk + n + 64]: above flooding's nk guarantee. *)

val default_rw_caps : n:int -> k:int -> int * int
(** Algorithm 2's default [(phase 1, phase 2)] round caps:
    [(50n + 1000, 4nk + 4n²)] — the random-walk phase's settling
    budget, then the multi-source phase's. *)

val single_source :
  instance:Instance.t ->
  env:unicast_env ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  ?max_rounds:int ->
  ?stall_after:int ->
  ?cancel:(unit -> bool) ->
  ?config:Single_source.config ->
  ?faults:Faults.Plan.t ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Span.t ->
  ?on_graph:(round:int -> Dynet.Graph.t -> unit) ->
  unit ->
  Engine.Run_result.t * Single_source.state array
(** Algorithm 1 ([config] defaults to the paper's behaviour; the other
    configurations exist for the ablation bench).
    @raise Invalid_argument on multi-source instances. *)

val multi_source :
  instance:Instance.t ->
  env:unicast_env ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  ?max_rounds:int ->
  ?stall_after:int ->
  ?cancel:(unit -> bool) ->
  ?source_order:Multi_source.source_order ->
  ?seed:int ->
  ?faults:Faults.Plan.t ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Span.t ->
  ?on_graph:(round:int -> Dynet.Graph.t -> unit) ->
  unit ->
  Engine.Run_result.t * Multi_source.state array
(** [source_order] defaults to the paper's min-source rule; the random
    alternative exists for the ablation bench. *)

val reliable_single_source :
  instance:Instance.t ->
  env:unicast_env ->
  ?max_rounds:int ->
  ?config:Single_source.config ->
  ?rto:int ->
  ?backoff:float ->
  ?faults:Faults.Plan.t ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Span.t ->
  unit ->
  Engine.Run_result.t * Single_source.state array * int
(** Algorithm 1 wrapped in {!Reliable.Make}: completes under message
    loss / duplication / delay that the bare protocol does not
    survive.  Returns the {e inner} protocol states and the total
    retransmission count (also folded into the result's fault counts
    when a plan was active).  The default round cap is doubled — the
    wrapper trades rounds and messages for delivery guarantees. *)

val reliable_multi_source :
  instance:Instance.t ->
  env:unicast_env ->
  ?max_rounds:int ->
  ?source_order:Multi_source.source_order ->
  ?seed:int ->
  ?rto:int ->
  ?backoff:float ->
  ?faults:Faults.Plan.t ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Span.t ->
  unit ->
  Engine.Run_result.t * Multi_source.state array * int
(** Multi-Source-Unicast wrapped in {!Reliable.Make}; see
    {!reliable_single_source}. *)

val flooding :
  instance:Instance.t ->
  schedule:Adversary.Schedule.t ->
  ?engine:(module Engine.Engine_sig.ENGINE) ->
  ?phase_len:int ->
  ?max_rounds:int ->
  ?stall_after:int ->
  ?cancel:(unit -> bool) ->
  ?faults:Faults.Plan.t ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Span.t ->
  ?on_graph:(round:int -> Dynet.Graph.t -> unit) ->
  unit ->
  Engine.Run_result.t * Flooding.state array
(** Phased flooding against an oblivious schedule. *)

val flooding_vs_lower_bound :
  instance:Instance.t ->
  seed:int ->
  ?max_rounds:int ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Span.t ->
  unit ->
  Engine.Run_result.t * Flooding.state array * Adversary.Broadcast_lb.t
(** Phased flooding against the Section-2 strongly adaptive adversary.
    The returned adversary exposes its per-round history and the
    potential function for the E2/E3 experiments. *)

val greedy_vs_lower_bound :
  instance:Instance.t ->
  policy:Greedy_bcast.policy ->
  seed:int ->
  ?max_rounds:int ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Span.t ->
  unit ->
  Engine.Run_result.t * Greedy_bcast.state array * Adversary.Broadcast_lb.t
(** An unstructured broadcast heuristic against the same adversary.
    These generally do {e not} complete within any polynomial cap —
    the interesting output is messages spent per learning achieved. *)

val random_push :
  instance:Instance.t ->
  env:unicast_env ->
  seed:int ->
  ?max_rounds:int ->
  ?faults:Faults.Plan.t ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Span.t ->
  unit ->
  Engine.Run_result.t * Random_push.state array
(** The unstructured push baseline (ablation: what the
    request/response structure of Algorithm 1 buys). *)

val leader_election :
  n:int ->
  env:unicast_env ->
  ?max_rounds:int ->
  ?faults:Faults.Plan.t ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Span.t ->
  unit ->
  Engine.Run_result.t * Leader_election.state array
(** Max-id leader election under the adversary-competitive lens (the
    paper's Section-4 direction); stops when everyone agrees on the
    leader. *)

val coded_broadcast :
  instance:Instance.t ->
  schedule:Adversary.Schedule.t ->
  seed:int ->
  ?max_rounds:int ->
  ?faults:Faults.Plan.t ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Span.t ->
  unit ->
  Engine.Run_result.t * Coded_bcast.state array
(** Network-coding gossip (not token-forwarding; see {!Coded_bcast}).
    Stops when every node has decoded all k tokens. *)

val oblivious_rw :
  instance:Instance.t ->
  schedule:Adversary.Schedule.t ->
  seed:int ->
  ?const_f:float ->
  ?const_gamma:float ->
  ?force_rw:bool ->
  ?phase1_cap:int ->
  ?phase2_cap:int ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Span.t ->
  unit ->
  Oblivious_rw.result
(** Algorithm 2 ({!Oblivious_rw.run}); the phase caps default to
    {!default_rw_caps}. *)
