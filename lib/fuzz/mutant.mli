(** A deliberately broken engine — the fuzzer's smoke test.

    A differential fuzzer that never fires proves nothing: the
    mutation smoke test passes an engine with a seeded bug as one side
    of the comparison ([Campaign.run ~engine_b]) and asserts the
    campaign finds and shrinks it within a bounded budget.

    [engine ~bug] wraps {!Engine.Default}: unicast runs pass through
    unchanged, and every broadcast protocol runs with its
    {!Engine.Runner_broadcast.PROTOCOL.plane} dropped and, under
    [bug:true], its [intent] called at [~round:(round + 1)].  Phased
    flooding then starts its phase clock at round 0 instead of round 1,
    crossing every phase boundary one round early — an off-by-one in
    token selection that diverges only on runs long enough to complete
    a phase.  [bug:false] is the control: it must diff clean. *)

val engine : bug:bool -> (module Engine.Engine_sig.ENGINE)
