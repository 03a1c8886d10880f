(** Running one case through two engines and comparing the outputs.

    The differential property is {e bit identity}: for the same
    {!Case.t}, both engines must produce byte-identical run-report
    JSON (outcome, ledger totals and per-class counts, per-node loads,
    timeline) and byte-identical realized schedules (the [?on_graph]
    round-graph sequence, serialized through {!Scenario.Record}).
    Engine failures are part of the contract too: a typed engine error
    ({!Engine.Engine_error.Protocol_violation},
    [Adversary_violation], {!Check.Check_failed}) must be raised by
    both engines with the same message, or the case is a mismatch.
    Any other exception propagates — it is a harness bug, not a
    divergence. *)

type exec = {
  engine : string;  (** The engine's [name]. *)
  report : string;  (** Run-report JSON; [""] when [error] is set. *)
  realized : string;
      (** The realized schedule as [dynspread-trace/v1] text (rounds
          recorded up to the failure point, when [error] is set). *)
  error : string option;
      (** A typed engine failure, tagged and carrying the message. *)
}

val execute :
  engine:(module Engine.Engine_sig.ENGINE) ->
  ?prof:Obs.Span.t ->
  Case.t ->
  exec
(** One run: {!Scenario.Runner.run_repeat} on the case's spec
    ({!Case.to_spec}, one repeat at the case seed) with its in-memory
    trace ({!Case.to_trace}) and a {!Scenario.Record} on the
    [?on_graph] hook.  Instance, fault plan, looped schedule, stall
    window and round cap are all the runner's, so the report is byte
    for byte what [dynspread scenario run] prints for the saved case
    under the same engine. *)

val divergence : exec -> exec -> string option
(** [None] iff the two executions agree bit-for-bit: same
    report, same realized schedule, same error (or none).  The
    returned string names which side of the contract broke. *)

val check :
  ?prof:Obs.Span.t ->
  engine_a:(module Engine.Engine_sig.ENGINE) ->
  engine_b:(module Engine.Engine_sig.ENGINE) ->
  Case.t ->
  string option
(** Run the case through both engines and compare.  A seeded-bug
    engine ({!Mutant.engine}, {!Engine.Soa.make}'s [boundary_bug])
    goes in as [engine_b] like any other. *)
