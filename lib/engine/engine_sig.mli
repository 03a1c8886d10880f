(** The common [ENGINE] seam.

    The three simulation engines — the fast-path {!Default}, the
    pseudocode-faithful {!Reference} and the struct-of-arrays {!Soa} —
    implement the same pair of [run] signatures, packaged as a
    first-class {!module-type-ENGINE} value.  Anything that executes a
    protocol against an adversary can be parameterized over the engine
    (see [Gossip.Runners]' [?engine], the [lib/fuzz] differential
    harness and the serve daemon's workers).  {!Default} and {!Soa}
    share their per-round bookkeeping through {!Round_harness};
    {!Reference} keeps an independent loop, which is what makes it an
    oracle.

    The [PROTOCOL] module types and adversary types are {e owned} by
    {!Runner_broadcast} / {!Runner_unicast}: every engine runs the
    exact same protocol modules against the exact same adversaries,
    which is what makes bit-identical differential comparison
    meaningful.

    The contract an implementation must honour (the differential
    fuzzer enforces it): given identical protocols, initial states,
    adversaries, fault plans, and caps, produce an identical
    {!Run_result.t} — same outcome, ledger counts, per-sender loads,
    and timeline — and drive [?on_graph] with the identical committed
    round-graph sequence.  Trace-event streams and profiling spans
    must match the engine docs but are not part of the bit-identity
    contract.

    Cooperative cancellation: engines poll [?cancel] once per round
    boundary (including before the first round, so a pre-cancelled run
    executes zero rounds).  A poll returning [true] ends the run with
    a {!Run_result.Cancelled} outcome carrying the progress achieved
    so far; once it has returned [true] the engine treats the run as
    cancelled without polling again.  Completion observed at the same
    boundary wins over cancellation (cancel-after-completion is a
    no-op), and the default ([None]) costs one option test per
    round. *)

module type BROADCAST = sig
  val run :
    (module Runner_broadcast.PROTOCOL with type state = 's and type msg = 'm) ->
    ?init_prev:Dynet.Graph.t ->
    ?obs:Obs.Sink.t ->
    ?faults:Faults.Plan.t ->
    ?prof:Obs.Span.t ->
    ?on_graph:(round:int -> Dynet.Graph.t -> unit) ->
    ?target_progress:int ->
    ?stall_after:int ->
    ?cancel:(unit -> bool) ->
    states:'s array ->
    adversary:('s, 'm) Runner_broadcast.adversary ->
    max_rounds:int ->
    stop:('s array -> bool) ->
    unit ->
    Run_result.t * 's array
  (** See {!Runner_broadcast.run} for the full parameter contract. *)
end

module type UNICAST = sig
  val run :
    (module Runner_unicast.PROTOCOL with type state = 's and type msg = 'm) ->
    ?init_prev:Dynet.Graph.t ->
    ?obs:Obs.Sink.t ->
    ?faults:Faults.Plan.t ->
    ?prof:Obs.Span.t ->
    ?on_graph:(round:int -> Dynet.Graph.t -> unit) ->
    ?target_progress:int ->
    ?stall_after:int ->
    ?cancel:(unit -> bool) ->
    states:'s array ->
    adversary:'s Runner_unicast.adversary ->
    max_rounds:int ->
    stop:('s array -> bool) ->
    unit ->
    Run_result.t * 's array
  (** See {!Runner_unicast.run} for the full parameter contract. *)
end

module type ENGINE = sig
  val name : string
  (** Stable identifier for reports and diagnostics (["fastpath"],
      ["reference"], ["soa"], ["soa-N"]). *)

  module Broadcast : BROADCAST
  module Unicast : UNICAST
end
