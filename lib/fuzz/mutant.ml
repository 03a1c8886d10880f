open! Dynet.Ops

(* The fault lives in the engine, so the protocols under test are the
   real ones: every broadcast protocol the wrapped engine runs has its
   clock read [shift] rounds late.  Phased flooding's
   [(round - 1) / phase_len] then becomes [round / phase_len] at
   [shift = 1] — every phase boundary crossed one round early, the
   classic off-by-one in token selection.  Dropping the plane keeps
   the wrapped protocol on the engine's ordinary protocol path, so the
   control ([shift = 0]) checks that path against the reference too. *)
let engine ~bug : (module Engine.Engine_sig.ENGINE) =
  let shift = if bug then 1 else 0 in
  (module struct
    let name = if bug then "fastpath+round-shift" else "fastpath+generic"

    module Broadcast = struct
      let run (type s m)
          (module P : Engine.Runner_broadcast.PROTOCOL
            with type state = s
             and type msg = m) =
        Engine.Default.Broadcast.run
          (module struct
            include P

            let intent st ~round = P.intent st ~round:(round + shift)
            let plane = None
          end)
    end

    module Unicast = Engine.Default.Unicast
  end)
