open Dynet.Ops

(* The per-round bookkeeping every non-reference engine shares: graph
   commit and validation, the ledger's graph-change and progress
   upkeep, the timeline, stall detection, the cancel latch, the
   [Check] invariants, trace events, spans and outcome precedence.
   The engines keep only their intent/send/deliver/receive bodies.

   The per-round functions are [@@dynlint.hot]: on a run with the null
   sink, the null profiler and checks off they must not allocate (the
   SoA plane kernel's zero-allocation tests run through them).
   Everything that does allocate — trace events, spans, invariant
   checks, graph validation, timeline growth — sits in a small helper
   behind a hoisted flag or a physical-identity gate, waived by name. *)

(* Growable int log for the timeline: the round loop appends two ints
   per round with amortized-doubling growth, and the [(round, total,
   learnings)] list the result needs is materialised once at the end,
   outside the hot loop. *)
module Ilog = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 256 0; len = 0 }

  let grow t =
    let a' = Array.make (2 * t.len) 0 in
    Array.blit t.a 0 a' 0 t.len;
    t.a <- a'
  [@@dynlint.alloc_ok "amortized doubling: log2(rounds) times per run"]

  let push t x =
    if t.len = Array.length t.a then grow t;
    t.a.(t.len) <- x;
    t.len <- t.len + 1
  [@@dynlint.hot]

  let get t i = t.a.(i)
  let len t = t.len
end

type t = {
  n : int;
  obs : Obs.Sink.t;
  prof : Obs.Span.t;
  (* Hoisted so the default null sink, null profiler and disabled
     checks cost one boolean test per site and never allocate. *)
  tracing : bool;
  profiling : bool;
  checking : bool;
  ledger : Ledger.t;
  frun : Faults.Plan.run;
  faulty : bool;
  on_graph : (round:int -> Dynet.Graph.t -> unit) option;
  stall_after : int option;
  cancel : (unit -> bool) option;
  max_rounds : int;
  target_progress : int option;
  totals : Ilog.t;
  learned : Ilog.t;
  mutable round : int;
  mutable prev : Dynet.Graph.t;
  mutable last_valid : Dynet.Graph.t;
  mutable progress : int;
  mutable best_progress : int;
  mutable stagnant : int;
  mutable stalled : bool;
  mutable completed : bool;
  mutable cancelled : bool;
  mutable aborted : string option;
  mutable c_sent : int;
  mutable c_created : int;
  mutable c_consumed : int;
  mutable c_dropped : int;
  mutable c_inflight : int;
}

let start ?init_prev ~obs ~faults ~prof ?on_graph ?target_progress
    ?stall_after ?cancel ~n ~max_rounds ~progress ~completed () =
  let ledger = Ledger.create () in
  let frun = Faults.Plan.start faults ~n in
  let tracing = not (Obs.Sink.is_null obs) in
  Ledger.note_progress ledger progress;
  if tracing then
    Obs.Sink.emit obs
      (Obs.Trace.Progress { round = 0; progress; learnings = 0 });
  {
    n;
    obs;
    prof;
    tracing;
    profiling = not (Obs.Span.is_null prof);
    checking = Check.enabled ();
    ledger;
    frun;
    faulty = Faults.Plan.active frun;
    on_graph;
    stall_after;
    cancel;
    max_rounds;
    target_progress;
    totals = Ilog.create ();
    learned = Ilog.create ();
    round = 0;
    prev = Option.value init_prev ~default:(Dynet.Graph.empty ~n);
    (* A fresh sentinel no adversary graph can alias. *)
    last_valid = Dynet.Graph.empty ~n;
    progress;
    best_progress = progress;
    stagnant = 0;
    stalled = false;
    completed;
    cancelled = false;
    aborted = None;
    c_sent = 0;
    c_created = 0;
    c_consumed = 0;
    c_dropped = 0;
    c_inflight = 0;
  }

let ledger h = h.ledger
let prev h = h.prev
let checking h = h.checking
let faulty h = h.faulty
let frun h = h.frun

(* Invariant-layer counters: no-ops unless checks are enabled. *)
let count_sent h k = if h.checking then h.c_sent <- h.c_sent + k
[@@dynlint.hot]

let count_created h k = if h.checking then h.c_created <- h.c_created + k
[@@dynlint.hot]

let count_consumed h k = if h.checking then h.c_consumed <- h.c_consumed + k
[@@dynlint.hot]

(* {2 Spans and trace events}

   Each helper runs only behind the hoisted [profiling]/[tracing] test
   of its caller, so the allocation it does is off the default path. *)

let enter_span h ~cat name = Obs.Span.enter h.prof ~cat name
[@@dynlint.alloc_ok "spans are recorded only under a live profiler"]

let leave_span h = Obs.Span.leave h.prof
[@@dynlint.alloc_ok "spans are recorded only under a live profiler"]

let enter h name = if h.profiling then enter_span h ~cat:"phase" name
[@@dynlint.hot]

let leave h = if h.profiling then leave_span h [@@dynlint.hot]

let open_round h =
  if h.tracing then
    Obs.Sink.emit h.obs (Obs.Trace.Round_start { round = h.round });
  if h.profiling then begin
    Obs.Span.enter h.prof ~cat:"round" "round";
    Obs.Span.add_counter h.prof "round" (float_of_int h.round)
  end
[@@dynlint.alloc_ok "trace events and spans exist only when a sink or \
                     profiler is attached"]

let trace_graph_change h ~added ~removed =
  Obs.Sink.emit h.obs
    (Obs.Trace.Graph_change { round = h.round; added; removed })
[@@dynlint.alloc_ok "trace events exist only when a sink is attached"]

let trace_progress h =
  Obs.Sink.emit h.obs
    (Obs.Trace.Progress
       {
         round = h.round;
         progress = h.progress;
         learnings = Ledger.learnings h.ledger;
       })
[@@dynlint.alloc_ok "trace events exist only when a sink is attached"]

let emit_fault h ~kind ~node ?dst ?cls () =
  if h.tracing then
    Obs.Sink.emit h.obs
      (Obs.Trace.Fault { round = h.round; kind; node; dst; cls })

(* {2 The round loop} *)

(* Cooperative cancellation, polled once per round boundary (the first
   poll happens before round 1, so a pre-cancelled run executes zero
   rounds).  Latched: once the caller's poll returns true the run is
   cancelled for good and the poll never fires again. *)
let cancel_requested h =
  (match h.cancel with
  | None -> ()
  | Some c -> if not h.cancelled then h.cancelled <- c ());
  h.cancelled
[@@dynlint.hot]

let continue h =
  (not h.completed) && (not h.stalled) && Option.is_none h.aborted
  && (not (cancel_requested h))
  && h.round < h.max_rounds
[@@dynlint.hot]

let begin_round h =
  h.round <- h.round + 1;
  if h.tracing || h.profiling then open_round h;
  h.round
[@@dynlint.hot]

let fault_prologue h ~states ~initial =
  if h.faulty then begin
    enter h "faults";
    Faults.Plan.begin_round h.frun ~round:h.round
      ~on_crash:(fun v -> emit_fault h ~kind:"crash" ~node:v ())
      ~on_restart:(fun v ->
        states.(v) <- initial.(v);
        emit_fault h ~kind:"restart" ~node:v ());
    if Faults.Plan.doomed h.frun then
      h.aborted <- Some "all nodes crashed with no possible restart";
    leave h;
    (* The doomed round ends here: close its span. *)
    if Option.is_some h.aborted then leave h
  end;
  Option.is_none h.aborted

(* Validity gate: a graph physically equal to the last validated one
   (what Stability returns on stable rounds) cannot have changed its
   node count or connectivity, so stable rounds skip the O(n + m)
   union-find walk and its allocation. *)
let validate h g =
  Engine_error.check_graph ~round:h.round ~n:h.n g;
  h.last_valid <- g
[@@dynlint.alloc_ok "runs only on a graph physically new since the last \
                     validated one"]

let commit_graph h g =
  enter h "graph";
  if g != h.last_valid then validate h g;
  (* Recorder hook: the committed (validated) round graph, once per
     round, for realized-schedule capture of any adversary. *)
  (match h.on_graph with None -> () | Some f -> f ~round:h.round g);
  let tc0 = Ledger.tc h.ledger and rm0 = Ledger.removals h.ledger in
  Ledger.note_graph_change h.ledger ~prev:h.prev ~cur:g;
  if h.tracing then
    trace_graph_change h
      ~added:(Ledger.tc h.ledger - tc0)
      ~removed:(Ledger.removals h.ledger - rm0);
  Ledger.note_round h.ledger;
  h.prev <- g;
  leave h
[@@dynlint.hot]

let run_checks h ~what =
  enter h "check";
  Check.connected
    ~what:(Printf.sprintf "round %d: adversary graph connectivity" h.round)
    h.prev;
  Check.require ~what (fun () -> Ledger.total h.ledger = h.c_sent);
  Check.require ~what:"message-copy conservation" (fun () ->
      Check.conserved ~created:h.c_created ~consumed:h.c_consumed
        ~dropped:h.c_dropped ~in_flight:h.c_inflight);
  leave h
[@@dynlint.alloc_ok "invariant checks run only when enabled"]

let check_round h ~what = if h.checking then run_checks h ~what
[@@dynlint.hot]

let end_round h ~progress ~completed =
  Ledger.note_progress h.ledger progress;
  h.progress <- progress;
  if h.tracing then trace_progress h;
  (* Opt-in livelock detector: [stall_after = Some w] stops the run
     once global progress has not increased for [w] consecutive
     rounds.  Off by default: the Section-2 lower-bound adversary
     legitimately starves progress for long stretches. *)
  if progress > h.best_progress then begin
    h.best_progress <- progress;
    h.stagnant <- 0
  end
  else begin
    h.stagnant <- h.stagnant + 1;
    match h.stall_after with
    | Some w when h.stagnant >= w -> h.stalled <- true
    | Some _ | None -> ()
  end;
  Ilog.push h.totals (Ledger.total h.ledger);
  Ilog.push h.learned (Ledger.learnings h.ledger);
  h.completed <- completed;
  leave h
[@@dynlint.hot]

let finish h =
  if h.tracing then begin
    Obs.Sink.emit h.obs
      (Obs.Trace.Run_end
         {
           rounds = h.round;
           completed = h.completed;
           messages = Ledger.total h.ledger;
         });
    Obs.Sink.flush h.obs
  end;
  let outcome =
    match h.aborted with
    | Some reason -> Run_result.Aborted reason
    | None ->
        if h.completed then Run_result.Completed
        else if h.stalled then
          Run_result.Stalled { rounds_without_progress = h.stagnant }
        else if h.cancelled then
          Run_result.Cancelled
            { achieved = h.progress; target = h.target_progress }
        else
          Run_result.Partial
            { achieved = h.progress; target = h.target_progress }
  in
  let timeline =
    List.init (Ilog.len h.totals) (fun i ->
        (i + 1, Ilog.get h.totals i, Ilog.get h.learned i))
  in
  Run_result.make ~outcome
    ?fault_counts:(if h.faulty then Some (Faults.Plan.counts h.frun) else None)
    ~rounds:h.round ~completed:h.completed ~ledger:h.ledger ~timeline ()

(* {2 Fault-layer delivery}

   Shared by the sequential engines' faulty paths.  Counters track
   message *copies* through the delivery layer — created at send
   (duplication creates extras, a send-time drop destroys the copy),
   consumed at receive, destroyed with a dead node's inbox, or delayed
   in flight — so [check_round]'s conservation check catches any
   accounting drift between the ledger and the physical delivery
   path. *)

type 'm delayed =
  (int, (Dynet.Node_id.t * Dynet.Node_id.t * 'm) list ref) Hashtbl.t

let delay_table () : 'm delayed = Hashtbl.create 16

let deliver_faulty h (delayed : 'm delayed) inboxes ~src ~dst ~cls (m : 'm) =
  let cls_name = Msg_class.to_string cls in
  match Faults.Plan.deliveries h.frun with
  | None ->
      if h.checking then begin
        h.c_created <- h.c_created + 1;
        h.c_dropped <- h.c_dropped + 1
      end;
      emit_fault h ~kind:"drop" ~node:src ~dst ~cls:cls_name ()
  | Some delays ->
      if h.checking then h.c_created <- h.c_created + List.length delays;
      if List.length delays > 1 then
        emit_fault h ~kind:"dup" ~node:src ~dst ~cls:cls_name ();
      List.iter
        (fun d ->
          if d = 0 then inboxes.(dst) <- (src, m) :: inboxes.(dst)
          else begin
            if h.checking then h.c_inflight <- h.c_inflight + 1;
            emit_fault h ~kind:"delay" ~node:src ~dst ~cls:cls_name ();
            let due = h.round + d in
            let cell =
              match Hashtbl.find_opt delayed due with
              | Some cell -> cell
              | None ->
                  let cell = ref [] in
                  Hashtbl.add delayed due cell;
                  cell
            in
            cell := (dst, src, m) :: !cell
          end)
        delays

let settle_inboxes h (delayed : 'm delayed) inboxes ~classify =
  let r = h.round in
  (* Messages whose bounded delay expires this round arrive now, after
     the on-time traffic. *)
  (match Hashtbl.find_opt delayed r with
  | None -> ()
  | Some cell ->
      if h.checking then h.c_inflight <- h.c_inflight - List.length !cell;
      List.iter
        (fun (dst, src, m) -> inboxes.(dst) <- (src, m) :: inboxes.(dst))
        (List.rev !cell);
      Hashtbl.remove delayed r);
  (* A node crashed at delivery time loses its whole inbox. *)
  let fcounts = Faults.Plan.counts h.frun in
  for v = 0 to h.n - 1 do
    if not (Faults.Plan.alive h.frun v) then begin
      if h.checking then h.c_dropped <- h.c_dropped + List.length inboxes.(v);
      List.iter
        (fun (src, m) ->
          fcounts.Faults.Counts.drops <- fcounts.Faults.Counts.drops + 1;
          emit_fault h ~kind:"drop" ~node:src ~dst:v
            ~cls:(Msg_class.to_string (classify m)) ())
        (List.rev inboxes.(v));
      inboxes.(v) <- []
    end
  done
