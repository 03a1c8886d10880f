external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

let now_s () = float_of_int (now_ns ()) *. 1e-9
let seconds ns = float_of_int ns *. 1e-9

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted
