open Dynet.Ops

type t = {
  counts : int array;
  mutable rounds : int;
  mutable tc : int;
  mutable removals : int;
  mutable first_progress : int option;
  mutable last_progress : int;
  loads : (Dynet.Node_id.t, int) Hashtbl.t;
}

let create () =
  {
    counts = Array.make Msg_class.count 0;
    rounds = 0;
    tc = 0;
    removals = 0;
    first_progress = None;
    last_progress = 0;
    loads = Hashtbl.create 32;
  }

let copy t =
  {
    counts = Array.copy t.counts;
    rounds = t.rounds;
    tc = t.tc;
    removals = t.removals;
    first_progress = t.first_progress;
    last_progress = t.last_progress;
    loads = Hashtbl.copy t.loads;
  }

let record_sender t v m =
  if m < 0 then invalid_arg "Ledger.record_sender: negative message count";
  let old = Option.value (Hashtbl.find_opt t.loads v) ~default:0 in
  Hashtbl.replace t.loads v (old + m)

let sender_load t v = Option.value (Hashtbl.find_opt t.loads v) ~default:0
let max_load t = Hashtbl.fold (fun _ m acc -> max m acc) t.loads 0
let load_list t = Hashtbl.fold (fun _ m acc -> m :: acc) t.loads []

let mean_load t =
  let total, senders =
    Hashtbl.fold (fun _ m (total, n) -> (total + m, n + 1)) t.loads (0, 0)
  in
  if senders = 0 then 0. else float_of_int total /. float_of_int senders

let merge a b =
  let learn_span t =
    match t.first_progress with
    | None -> 0
    | Some first -> t.last_progress - first
  in
  let loads = Hashtbl.copy a.loads in
  Hashtbl.iter
    (fun v m ->
      let old = Option.value (Hashtbl.find_opt loads v) ~default:0 in
      Hashtbl.replace loads v (old + m))
    b.loads;
  {
    counts = Array.init Msg_class.count (fun i -> a.counts.(i) + b.counts.(i));
    rounds = a.rounds + b.rounds;
    tc = a.tc + b.tc;
    removals = a.removals + b.removals;
    first_progress = Some 0;
    last_progress = learn_span a + learn_span b;
    loads;
  }

let record t cls m =
  if m < 0 then invalid_arg "Ledger.record: negative message count";
  let i = Msg_class.index cls in
  t.counts.(i) <- t.counts.(i) + m

let count t cls = t.counts.(Msg_class.index cls)
let total t = Array.fold_left ( + ) 0 t.counts

let total_excluding t excluded =
  List.fold_left
    (fun acc cls ->
      if List.exists (Msg_class.equal cls) excluded then acc
      else acc + count t cls)
    0 Msg_class.all

let note_round t = t.rounds <- t.rounds + 1 [@@dynlint.hot]
let rounds t = t.rounds

let note_graph_change t ~prev ~cur =
  (* Single merge walk over the graphs' sorted edge keys instead of two
     Edge_set.diff set constructions per round. *)
  let inserted, removed = Dynet.Graph.delta_counts ~prev ~cur in
  t.tc <- t.tc + inserted;
  t.removals <- t.removals + removed

let tc t = t.tc
let removals t = t.removals

let note_progress t p =
  (match t.first_progress with
  | None ->
      (t.first_progress <- Some p)
      [@dynlint.alloc_ok "the first progress sample only, once per run"]
  | Some _ -> ());
  t.last_progress <- p

let learnings t =
  match t.first_progress with
  | None -> 0
  | Some first -> t.last_progress - first

let competitive_cost t ~alpha = float_of_int (total t) -. (alpha *. float_of_int t.tc)

let amortized t ~k =
  if k <= 0 then invalid_arg "Ledger.amortized: k must be positive";
  float_of_int (total t) /. float_of_int k

let amortized_competitive t ~alpha ~k =
  if k <= 0 then invalid_arg "Ledger.amortized_competitive: k must be positive";
  competitive_cost t ~alpha /. float_of_int k

let pp ppf t =
  Format.fprintf ppf
    "@[<v>rounds=%d total=%d tc=%d removals=%d learnings=%d@ %a@]" t.rounds
    (total t) t.tc t.removals (learnings t)
    (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun ppf cls ->
         Format.fprintf ppf "%a=%d" Msg_class.pp cls (count t cls)))
    Msg_class.all
