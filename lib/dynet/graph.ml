open Ops

(* The snapshot is stored as a sorted array of packed edge keys
   (key = u*n + v for the canonical u < v; see Edge_table) plus the
   precomputed adjacency.  The Edge_set view is materialised lazily:
   the per-round hot paths (engines, ledger deltas, stability) only
   need keys and adjacency, while reporting/tests can still ask for
   the set. *)
type t = {
  n : int;
  keys : int array;
  adj : Node_id.t array array;
  mutable eset : Edge_set.t option;
}

(* Packed keys sort in the same order as Edge.compare (lexicographic
   on canonical endpoints), so a single ascending scan sees each
   row's smaller-side neighbors in order, and a second one the
   larger-side neighbors in order: concatenating the two passes gives
   sorted adjacency without any per-row sort. *)
let adjacency_of_keys n keys =
  let deg = Array.make n 0 in
  Array.iter
    (fun key ->
      let u = key / n and v = key mod n in
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    keys;
  let adj = Array.init n (fun v -> Array.make deg.(v) 0) in
  let next = Array.make n 0 in
  Array.iter
    (fun key ->
      let u = key / n and v = key mod n in
      adj.(v).(next.(v)) <- u;
      next.(v) <- next.(v) + 1)
    keys;
  Array.iter
    (fun key ->
      let u = key / n and v = key mod n in
      adj.(u).(next.(u)) <- v;
      next.(u) <- next.(u) + 1)
    keys;
  adj

let of_sorted_keys ~n ~eset keys =
  { n; keys; adj = adjacency_of_keys n keys; eset }

let make ~n edges =
  if n < 0 then invalid_arg "Graph.make: negative n";
  let keys = Array.make (Edge_set.cardinal edges) 0 in
  let i = ref 0 in
  Edge_set.iter
    (fun e ->
      let u, v = Edge.endpoints e in
      if v >= n then
        invalid_arg
          (Printf.sprintf "Graph.make: edge endpoint %d out of range (n=%d)" v
             n);
      keys.(!i) <- (u * n) + v;
      incr i)
    edges;
  (* Edge_set iterates in Edge.compare order, so [keys] is sorted. *)
  of_sorted_keys ~n ~eset:(Some edges) keys

let of_table table =
  of_sorted_keys ~n:(Edge_table.n table) ~eset:None
    (Edge_table.sorted_keys table)

let empty ~n = make ~n Edge_set.empty
let n t = t.n

let edges t =
  match t.eset with
  | Some s -> s
  | None ->
      let s =
        Array.fold_left
          (fun acc key -> Edge_set.add_pair (key / t.n) (key mod t.n) acc)
          Edge_set.empty t.keys
      in
      t.eset <- Some s;
      s

let edge_count t = Array.length t.keys

let mem_key keys key =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length keys && keys.(!lo) = key

let mem_edge t u v =
  u <> v
  && u >= 0 && v >= 0 && u < t.n && v < t.n
  &&
  let u, v = if u < v then (u, v) else (v, u) in
  mem_key t.keys ((u * t.n) + v)

let neighbors t v = t.adj.(v)
let degree t v = Array.length t.adj.(v)

let incident_edges t v =
  (* O(degree) via the adjacency row, replacing the O(m) fold over the
     full edge set. *)
  Array.fold_left (fun acc w -> Edge.make v w :: acc) [] t.adj.(v)
  |> List.rev

let max_degree t =
  Array.fold_left (fun acc row -> max acc (Array.length row)) 0 t.adj

let fold_nodes f t acc =
  let rec loop v acc = if v >= t.n then acc else loop (v + 1) (f v acc) in
  loop 0 acc

let iter_pairs f t =
  Array.iter (fun key -> f (key / t.n) (key mod t.n)) t.keys

let iter_edges f t = iter_pairs (fun u v -> f (Edge.make u v)) t

let delta_counts ~prev ~cur =
  if prev.n <> cur.n then invalid_arg "Graph.delta_counts: node counts differ";
  if prev == cur || prev.keys == cur.keys then
    ((0, 0) [@dynlint.alloc_ok "a constant pair, allocated statically"])
  else begin
    (* Merge walk over two sorted key arrays. *)
    let a = prev.keys and b = cur.keys in
    let la = Array.length a and lb = Array.length b in
    let i = ref 0 and j = ref 0 in
    let removed = ref 0 and inserted = ref 0 in
    while !i < la && !j < lb do
      let ka = a.(!i) and kb = b.(!j) in
      if ka = kb then begin incr i; incr j end
      else if ka < kb then begin incr removed; incr i end
      else begin incr inserted; incr j end
    done;
    removed := !removed + (la - !i);
    inserted := !inserted + (lb - !j);
    (!inserted, !removed)
    [@dynlint.alloc_ok "one result pair per round whose edge set changed"]
  end

let same_edges a b =
  a == b || (a.n = b.n && (a.keys == b.keys || int_array_equal a.keys b.keys))

let bfs t root =
  let dist = Array.make t.n max_int in
  let parent = Array.make t.n None in
  let order = ref [] in
  let q = Queue.create () in
  dist.(root) <- 0;
  Queue.add root q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    order := (v, dist.(v)) :: !order;
    Array.iter
      (fun w ->
        if dist.(w) = max_int then begin
          dist.(w) <- dist.(v) + 1;
          parent.(w) <- Some v;
          Queue.add w q
        end)
      t.adj.(v)
  done;
  (List.rev !order, parent, dist)

let bfs_order t root =
  let order, _, _ = bfs t root in
  order

let bfs_tree t root =
  let _, parent, _ = bfs t root in
  parent

let distances t root =
  let _, _, dist = bfs t root in
  dist

let components t =
  let uf = Union_find.create t.n in
  iter_pairs (fun u v -> ignore (Union_find.union uf u v)) t;
  uf

let component_count t = Union_find.count (components t)
let is_connected t = t.n <= 1 || component_count t = 1

let eccentricity t v =
  if not (is_connected t) then
    invalid_arg "Graph.eccentricity: disconnected graph";
  Array.fold_left max 0 (distances t v)

let diameter t =
  if not (is_connected t) then invalid_arg "Graph.diameter: disconnected graph";
  let best = ref 0 in
  for v = 0 to t.n - 1 do
    best := max !best (eccentricity t v)
  done;
  !best

let spanning_forest t =
  let uf = Union_find.create t.n in
  let acc = ref Edge_set.empty in
  iter_pairs
    (fun u v -> if Union_find.union uf u v then acc := Edge_set.add_pair u v !acc)
    t;
  !acc

let connect_components t =
  let uf = components t in
  match Union_find.representatives uf with
  | [] | [ _ ] -> Edge_set.empty
  | first :: rest ->
      let extra, _ =
        List.fold_left
          (fun (acc, prev) rep -> (Edge_set.add_pair prev rep acc, rep))
          (Edge_set.empty, first) rest
      in
      extra

let union a b =
  if a.n <> b.n then invalid_arg "Graph.union: node counts differ";
  (* Merge of two sorted key arrays, deduplicated. *)
  let ka = a.keys and kb = b.keys in
  let la = Array.length ka and lb = Array.length kb in
  let out = Array.make (la + lb) 0 in
  let i = ref 0 and j = ref 0 and m = ref 0 in
  while !i < la || !j < lb do
    let take_a =
      !j >= lb || (!i < la && ka.(!i) <= kb.(!j))
    in
    let key = if take_a then ka.(!i) else kb.(!j) in
    if take_a then begin
      incr i;
      if !j < lb && kb.(!j) = key then incr j
    end
    else incr j;
    out.(!m) <- key;
    incr m
  done;
  of_sorted_keys ~n:a.n ~eset:None (Array.sub out 0 !m)

let pp ppf t =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@ %a@]" t.n (edge_count t)
    Edge_set.pp (edges t)
