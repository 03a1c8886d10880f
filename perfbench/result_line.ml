(* The metric catalogue and the result line.  BENCHMARK.json lists the
   same names and units; [check_catalogue] refuses to run when the two
   disagree. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("run_s", "s");
    ("peak_rss_mb", "MB");
    ("alloc_words_per_round", "words");
    ("msgs_per_token", "msgs");
    ("jobs_per_s", "jobs/s");
    ("job_p50_s", "s");
    ("job_p95_s", "s");
    ("first_event_p50_s", "s");
  ]

let parts = [ "ss-rotator"; "ms-cutter"; "static"; "churn" ]

let per_part =
  [
    ("adversary.busy_s", "s");
    ("adversary.calls", "count");
    ("adversary.alloc_mw", "Mw");
    ("gossip.send_s", "s");
    ("gossip.send_calls", "count");
    ("gossip.send_alloc_mw", "Mw");
    ("gossip.receive_s", "s");
    ("gossip.receive_alloc_mw", "Mw");
    ("gossip.intent_s", "s");
    ("engine.self_s", "s");
    ("engine.alloc_mw", "Mw");
    ("engine.setup_s", "s");
    ("engine.rounds", "count");
  ]

let per_layer =
  List.concat_map
    (fun p -> List.map (fun (m, u) -> (p ^ "." ^ m, u)) per_part)
    parts
  @ [
      ("static.engine.cpu_util", "ratio");
      ("churn.engine.cpu_util", "ratio");
      ("scenario.prepare_s", "s");
      ("obs.report_s", "s");
      ("obs.report_bytes", "bytes");
      ("trace.overhead_frac", "ratio");
      ("serve.accept_p50_s", "s");
      ("serve.queue_wait_p50_s", "s");
      ("serve.worker_busy_s", "s");
      ("serve.worker_util", "ratio");
      ("serve.frames_per_job", "frames");
      ("serve.event_bytes_per_job", "bytes");
      ("serve.rejected", "count");
      ("rpc.decode_s", "s");
      ("rpc.decode_calls", "count");
    ]

let catalogue ~trace = if trace then per_layer else end_to_end

let check_catalogue path =
  let listed key doc =
    match Obs.Json.member key doc with
    | Some (Obs.Json.List items) ->
        List.map
          (fun m ->
            match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
            | Some (Obs.Json.String n), Some (Obs.Json.String u) -> (n, u)
            | _ -> failwith (path ^ ": a metric without name or unit"))
          items
    | _ -> failwith (path ^ ": no " ^ key ^ " list")
  in
  let doc =
    match Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok d -> d
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let same key mine =
    if listed key doc <> mine then
      failwith
        (Printf.sprintf "%s: %s does not match the benchmark's catalogue" path
           key)
  in
  same "end_to_end" end_to_end;
  same "per_layer" per_layer

(* {2 Samples} *)

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = truncate pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* {2 Output} *)

type t = { values : (string, float) Hashtbl.t; notes : Buffer.t }

let create () = { values = Hashtbl.create 64; notes = Buffer.create 256 }
let set t name v =
  if not (Float.is_finite v) then failwith (name ^ ": no finite value measured");
  Hashtbl.replace t.values name v
let note t fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') t.notes fmt

(* Every catalogued metric is printed; a layer the workload does not
   exercise reads 0.  The human-readable table goes first, the JSON
   object is the last line of standard output. *)
let print t ~trace ~attempted ~failed =
  let names = catalogue ~trace in
  List.iter
    (fun (n, u) ->
      let v = Option.value (Hashtbl.find_opt t.values n) ~default:0. in
      Printf.printf "%-34s %16.6f %s\n" n v u)
    names;
  print_string (Buffer.contents t.notes);
  let metrics =
    List.map
      (fun (n, u) ->
        let v = Option.value (Hashtbl.find_opt t.values n) ~default:0. in
        ( n,
          Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String u) ]
        ))
      names
  in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (failed = 0));
            ("attempted", Obs.Json.Int attempted);
            ("failed", Obs.Json.Int failed);
            ("metrics", Obs.Json.Obj metrics);
          ]))
