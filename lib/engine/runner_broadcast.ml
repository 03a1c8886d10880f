(* Optional struct-of-arrays capability (see the mli for the laws a
   provider must satisfy): a protocol whose per-node state is exactly
   "a bitset of known tokens" under a phased single-token broadcast
   discipline describes itself here, and the SoA engine specializes
   its whole round loop onto flat word planes.  Protocols leave it
   [None] to run on the generic paths of every engine. *)
type ('s, 'm) plane_spec = {
  width : 's -> int;
  phase_of : 's -> round:int -> int;
  message : 's -> int -> 'm;
  mask : 's -> Dynet.Bitset.t;
  restate : 's -> mask:Dynet.Bitset.t -> known:int -> 's;
}

module type PROTOCOL = sig
  type state
  type msg

  val classify : msg -> Msg_class.t
  val intent : state -> round:int -> state * msg option

  val receive :
    state -> round:int -> inbox:(Dynet.Node_id.t * msg) list -> state

  val progress : state -> int
  val plane : (state, msg) plane_spec option
end

type ('state, 'msg) adversary =
  round:int ->
  prev:Dynet.Graph.t ->
  states:'state array ->
  intents:'msg option array ->
  Dynet.Graph.t

let run (type s m) (module P : PROTOCOL with type state = s and type msg = m)
    ?init_prev ?(obs = Obs.Sink.null) ?(faults = Faults.Plan.none)
    ?(prof = Obs.Span.null) ?on_graph ?target_progress ?stall_after ?cancel
    ~(states : s array)
    ~(adversary : (s, m) adversary)
    ~max_rounds ~stop () =
  let module H = Round_harness in
  let n = Array.length states in
  let sum_progress () =
    Array.fold_left (fun acc st -> acc + P.progress st) 0 states
  in
  let h =
    H.start ?init_prev ~obs ~faults ~prof ?on_graph ?target_progress
      ?stall_after ?cancel ~n ~max_rounds ~progress:(sum_progress ())
      ~completed:(stop states) ()
  in
  let tracing = not (Obs.Sink.is_null obs) in
  let checking = H.checking h in
  let faulty = H.faulty h and frun = H.frun h in
  (* Initial states, snapshotted for crash-restart state loss. *)
  let initial = if faulty then Array.copy states else [||] in
  let delayed = H.delay_table () in
  while H.continue h do
    let r = H.begin_round h in
    if H.fault_prologue h ~states ~initial then begin
      H.enter h "intent";
      let intents =
        Array.map
          (fun _ -> (None : m option))
          states
      in
      for v = 0 to n - 1 do
        (* A crashed node broadcasts nothing this round. *)
        if (not faulty) || Faults.Plan.alive frun v then begin
          let st, m = P.intent states.(v) ~round:r in
          states.(v) <- st;
          intents.(v) <- m
        end
      done;
      H.leave h;
      H.enter h "adversary";
      let g = adversary ~round:r ~prev:(H.prev h) ~states ~intents in
      H.leave h;
      H.commit_graph h g;
      H.enter h "send";
      (* A local broadcast is charged once in the ledger but delivered
         per edge, so the sent counter counts broadcasts while the copy
         counters track per-edge deliveries. *)
      let ledger = H.ledger h in
      Array.iteri
        (fun v intent ->
          match intent with
          | None -> ()
          | Some m ->
              let cls = P.classify m in
              Ledger.record ledger cls 1;
              Ledger.record_sender ledger v 1;
              H.count_sent h 1;
              if tracing then
                Obs.Sink.emit obs
                  (Obs.Trace.Send
                     {
                       round = r;
                       src = v;
                       dst = None;
                       cls = Msg_class.to_string cls;
                     }))
        intents;
      H.leave h;
      H.enter h "deliver";
      let inboxes =
        if not faulty then
          Array.init n (fun v ->
              (* Walk the sorted neighbor row backwards, prepending, so
                 the inbox comes out in ascending sender order without
                 the Array.to_list / filter_map intermediates. *)
              let row = Dynet.Graph.neighbors g v in
              let acc = ref [] in
              for i = Array.length row - 1 downto 0 do
                let u = row.(i) in
                match intents.(u) with
                | None -> ()
                | Some m ->
                    H.count_created h 1;
                    acc := (u, m) :: !acc
              done;
              !acc)
        else begin
          (* The per-edge deliveries of one broadcast fail (or
             duplicate, or lag) independently. *)
          let inboxes = Array.make n [] in
          for v = 0 to n - 1 do
            Array.iter
              (fun u ->
                match intents.(u) with
                | None -> ()
                | Some m ->
                    H.deliver_faulty h delayed inboxes ~src:u ~dst:v
                      ~cls:(P.classify m) m)
              (Dynet.Graph.neighbors g v)
          done;
          H.settle_inboxes h delayed inboxes ~classify:P.classify;
          Array.map List.rev inboxes
        end
      in
      H.leave h;
      H.enter h "receive";
      for v = 0 to n - 1 do
        if (not faulty) || Faults.Plan.alive frun v then begin
          if checking then H.count_consumed h (List.length inboxes.(v));
          states.(v) <- P.receive states.(v) ~round:r ~inbox:inboxes.(v)
        end
      done;
      H.leave h;
      H.check_round h ~what:"ledger total equals broadcasts performed";
      H.end_round h ~progress:(sum_progress ()) ~completed:(stop states)
    end
  done;
  (H.finish h, states)
