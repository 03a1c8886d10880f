(** The round harness shared by the fast-path engines ({!Runner_broadcast},
    {!Runner_unicast}) and the {!Soa} plane kernel.

    Every quantity the engines report is computed by the same per-round
    bookkeeping: graph validation and commit, the ledger's graph-change
    ([TC(E)]) and progress upkeep, the timeline, stall detection, the
    cancel latch, the {!Check} invariants, trace events, profiling
    spans and the outcome verdict.  This module owns all of it; an
    engine keeps only its intent/send/deliver/receive bodies and drives
    one harness per run:

    {[
      let h = Round_harness.start ... ~progress:p0 ~completed:(stop states) ()
      in
      while Round_harness.continue h do
        let r = Round_harness.begin_round h in
        if Round_harness.fault_prologue h ~states ~initial then begin
          (* intent, adversary ... *)
          Round_harness.commit_graph h g;
          (* send, deliver, receive ... *)
          Round_harness.check_round h ~what:"...";
          Round_harness.end_round h ~progress:p ~completed:(stop states)
        end
      done;
      Round_harness.finish h
    ]}

    The event stream, the span tree, the {!Check} messages and the
    {!Run_result.t} are exactly those documented on
    {!Runner_broadcast.run} and {!Runner_unicast.run}.
    {!Reference} deliberately does {e not} use the harness: as the
    differential oracle it keeps its own independent loop. *)

type t
(** One run's bookkeeping state. *)

val start :
  ?init_prev:Dynet.Graph.t ->
  obs:Obs.Sink.t ->
  faults:Faults.Plan.t ->
  prof:Obs.Span.t ->
  ?on_graph:(round:int -> Dynet.Graph.t -> unit) ->
  ?target_progress:int ->
  ?stall_after:int ->
  ?cancel:(unit -> bool) ->
  n:int ->
  max_rounds:int ->
  progress:int ->
  completed:bool ->
  unit ->
  t
(** A fresh ledger seeded with the initial global [progress] (and its
    round-0 [Progress] event), the fault run of [faults], and
    [init_prev] (default: the empty graph [G_0]) as the first round's
    [prev].  [completed] is the stop predicate on the initial states. *)

(** {2 Accessors} *)

val ledger : t -> Ledger.t
val prev : t -> Dynet.Graph.t
(** The last committed round graph ([init_prev] before round 1): the
    [prev] the adversary sees. *)

val checking : t -> bool
(** Whether the {!Check} invariant layer is on for this run. *)

val faulty : t -> bool
(** Whether a fault plan is active ([false] for {!Faults.Plan.none}). *)

val frun : t -> Faults.Plan.run

val count_sent : t -> int -> unit
(** Add charged messages to the invariant layer's send counter (no-op
    with checks off); {!check_round} compares it to the ledger total. *)

val count_created : t -> int -> unit
(** Add message copies entering the delivery layer (no-op with checks
    off). *)

val count_consumed : t -> int -> unit
(** Add message copies handed to [receive] (no-op with checks off). *)

(** {2 Spans} *)

val enter : t -> string -> unit
(** Open a [phase] span of the current round (no-op without a
    profiler). *)

val leave : t -> unit
(** Close the innermost open span (no-op without a profiler). *)

(** {2 The round loop} *)

val continue : t -> bool
(** Whether to run another round: not completed, stalled or aborted,
    not cancelled, and under [max_rounds].  The [?cancel] poll runs
    here, once per round boundary and only while the run is otherwise
    live (so completion wins over cancellation); a [true] latches. *)

val begin_round : t -> int
(** Advance to the next round and return its number: emits
    [Round_start] and opens the round's [round] span. *)

val fault_prologue : t -> states:'s array -> initial:'s array -> bool
(** Advance the fault plan's node fates (inside a [faults] span):
    crashes and restarts are traced, a restarted node's state is reset
    to its [initial] one.  Returns [false] once every node is crashed
    for good: the run is then aborted and the round over, its span
    closed.  Always [true] without a fault plan. *)

val commit_graph : t -> Dynet.Graph.t -> unit
(** Commit the adversary's round graph (inside a [graph] span):
    validate it unless it is physically the last validated graph
    (@raise Engine_error.Adversary_violation), call [?on_graph], record
    the graph change in the ledger and trace ([Graph_change]), count
    the round, and make the graph the next round's {!prev}. *)

val check_round : t -> what:string -> unit
(** With checks on (inside a [check] span): the round graph's
    connectivity, the ledger total against {!count_sent} (failing with
    [what]), and message-copy conservation.  No-op otherwise. *)

val end_round : t -> progress:int -> completed:bool -> unit
(** Close the round: record the global [progress] (ledger and
    [Progress] event), run the opt-in stall window, append the
    timeline sample, latch [completed] (the stop predicate on the new
    states) and close the round span. *)

val finish : t -> Run_result.t
(** Emit [Run_end] and flush the sink, then build the result.  Outcome
    precedence: [Aborted] > [Completed] > [Stalled] > [Cancelled] >
    [Partial]; the last two carry the progress of the last executed
    round.  Fault counts are attached when a plan was active. *)

(** {2 Fault-layer delivery} *)

type 'm delayed
(** Messages held back by a bounded delay, by due round. *)

val delay_table : unit -> 'm delayed

val deliver_faulty :
  t ->
  'm delayed ->
  (Dynet.Node_id.t * 'm) list array ->
  src:Dynet.Node_id.t ->
  dst:Dynet.Node_id.t ->
  cls:Msg_class.t ->
  'm ->
  unit
(** Send one message copy through the fault plan: dropped, duplicated,
    or delivered now (consed onto [inboxes.(dst)]) or later (held in
    the delay table), with the matching [Fault] events. *)

val settle_inboxes :
  t ->
  'm delayed ->
  (Dynet.Node_id.t * 'm) list array ->
  classify:('m -> Msg_class.t) ->
  unit
(** The faulty round's delivery epilogue: cons the messages due this
    round onto their inboxes (after the on-time traffic), then empty
    the inbox of every crashed node, counting and tracing each lost
    message as a drop.  Inboxes stay in reverse arrival order. *)
