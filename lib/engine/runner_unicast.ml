open Dynet.Ops

module type PROTOCOL = sig
  type state
  type msg

  val classify : msg -> Msg_class.t

  val send :
    state ->
    round:int ->
    neighbors:Dynet.Node_id.t array ->
    state * (Dynet.Node_id.t * msg) list

  val receive :
    state ->
    round:int ->
    neighbors:Dynet.Node_id.t array ->
    inbox:(Dynet.Node_id.t * msg) list ->
    state

  val progress : state -> int
end

type traffic = (Dynet.Node_id.t * Dynet.Node_id.t * Msg_class.t) list

type 'state adversary =
  round:int ->
  prev:Dynet.Graph.t ->
  states:'state array ->
  traffic:traffic ->
  Dynet.Graph.t

(* [search] threads [arr]/[x] explicitly so it stays a constant
   closure: capturing them would allocate one closure per call, and
   this probe runs once per delivered message. *)
let mem_sorted arr x =
  let rec search arr x lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let c = compare x arr.(mid) in
      if c = 0 then true
      else if c < 0 then search arr x lo mid
      else search arr x (mid + 1) hi
  in
  search arr x 0 (Array.length arr)
[@@dynlint.hot]

let run (type s m) (module P : PROTOCOL with type state = s and type msg = m)
    ?init_prev ?(obs = Obs.Sink.null) ?(faults = Faults.Plan.none)
    ?(prof = Obs.Span.null) ?on_graph ?target_progress ?stall_after ?cancel
    ~(states : s array)
    ~(adversary : s adversary)
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
  (* One bit per ordered (src, dst) pair, allocated once and cleared
     per round — replaces a fresh per-round Hashtbl keyed by tuples. *)
  let token_sent = Dynet.Bitset.create (n * n) in
  let traffic = ref ([] : traffic) in
  while H.continue h do
    let r = H.begin_round h in
    if H.fault_prologue h ~states ~initial then begin
      H.enter h "adversary";
      let g = adversary ~round:r ~prev:(H.prev h) ~states ~traffic:!traffic in
      H.leave h;
      H.commit_graph h g;
      H.enter h "send";
      let ledger = H.ledger h in
      let inboxes = Array.make n [] in
      let round_traffic = ref [] in
      Dynet.Bitset.clear token_sent;
      for v = 0 to n - 1 do
        if (not faulty) || Faults.Plan.alive frun v then begin
          let neighbors = Dynet.Graph.neighbors g v in
          let st, out = P.send states.(v) ~round:r ~neighbors in
          states.(v) <- st;
          List.iter
            (fun (dst, m) ->
              if not (mem_sorted neighbors dst) then
                raise
                  (Engine_error.Protocol_violation
                     (Printf.sprintf "round %d: node %d sent to non-neighbor %d"
                        r v dst));
              let cls = P.classify m in
              (match cls with
              | Msg_class.Token | Msg_class.Walk ->
                  let pair = (v * n) + dst in
                  if Dynet.Bitset.mem token_sent pair then
                    raise
                      (Engine_error.Protocol_violation
                         (Printf.sprintf
                            "round %d: node %d sent two tokens to %d in one round"
                            r v dst));
                  Dynet.Bitset.set token_sent pair
              | Msg_class.Completeness | Msg_class.Request | Msg_class.Center
              | Msg_class.Control ->
                  ());
              Ledger.record ledger cls 1;
              Ledger.record_sender ledger v 1;
              H.count_sent h 1;
              if tracing then
                Obs.Sink.emit obs
                  (Obs.Trace.Send
                     {
                       round = r;
                       src = v;
                       dst = Some dst;
                       cls = Msg_class.to_string cls;
                     });
              round_traffic := (v, dst, cls) :: !round_traffic;
              (* Collect in reverse, fix sender order below. *)
              if not faulty then begin
                H.count_created h 1;
                inboxes.(dst) <- (v, m) :: inboxes.(dst)
              end
              else H.deliver_faulty h delayed inboxes ~src:v ~dst ~cls m)
            out
        end
      done;
      H.leave h;
      if faulty then begin
        H.enter h "deliver";
        (* Late arrivals land after the on-time traffic; the sort below
           interleaves them into sender order. *)
        H.settle_inboxes h delayed inboxes ~classify:P.classify;
        H.leave h
      end;
      H.enter h "receive";
      for v = 0 to n - 1 do
        if (not faulty) || Faults.Plan.alive frun v then begin
          let inbox =
            List.stable_sort (fun (a, _) (b, _) -> Dynet.Node_id.compare a b)
              (List.rev inboxes.(v))
          in
          if checking then H.count_consumed h (List.length inbox);
          states.(v) <-
            P.receive states.(v) ~round:r ~neighbors:(Dynet.Graph.neighbors g v)
              ~inbox
        end
      done;
      H.leave h;
      H.check_round h ~what:"ledger total equals physical sends";
      traffic := List.rev !round_traffic;
      H.end_round h ~progress:(sum_progress ()) ~completed:(stop states)
    end
  done;
  (H.finish h, states)
