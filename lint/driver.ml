(* Orchestration: walk the tree, run every rule, apply waivers, and
   render the report.

   File identity: each directory passed to [run] is labelled by its
   basename, and files get ids like "lib/dynet/bitset.ml" regardless of
   where the tree physically sits (the dune @lint alias runs in a
   sandbox; tests run against fixture trees in temp dirs).  All scoping
   below matches on ids. *)

type config = {
  strict_poly : string list;  (* id prefixes with the poly-compare rule *)
  print_allowed : string list;  (* id prefixes free to print *)
  physeq_allowed : string list;  (* exact ids free to use == / != *)
  mli_required : string list;  (* id prefixes where .ml needs .mli *)
  unsafe_audited : string list;  (* id prefixes under the unsafe-index audit *)
  shard_scope : string list;  (* id prefixes scanned for Shard_pool jobs *)
}

let default_config =
  {
    strict_poly =
      [
        "lib/dynet/"; "lib/engine/"; "lib/fuzz/"; "lib/gossip/";
        "lib/scenario/"; "lib/serve/"; "bin/"; "bench/";
      ];
    print_allowed = [ "lib/obs/" ];
    physeq_allowed =
      [
      "lib/dynet/graph.ml"; "lib/dynet/stability.ml"; "lib/dynet/csr.ml";
      "lib/engine/round_harness.ml";
    ];
    mli_required = [ "lib/" ];
    unsafe_audited = [ "lib/dynet/"; "lib/engine/" ];
    shard_scope = [ "lib/" ];
  }

let has_prefix prefixes id =
  List.exists
    (fun p ->
      String.length id >= String.length p
      && String.equal (String.sub id 0 (String.length p)) p)
    prefixes

let scope_of config id =
  {
    Rules.strict_poly = has_prefix config.strict_poly id;
    print_allowed = has_prefix config.print_allowed id;
    physeq_allowed = List.exists (String.equal id) config.physeq_allowed;
  }

(* {2 Tree walk} *)

let rec walk_dir dir rel acc =
  Array.fold_left
    (fun acc entry ->
      let path = Filename.concat dir entry in
      let rel = if String.equal rel "" then entry else rel ^ "/" ^ entry in
      if Sys.is_directory path then
        if String.length entry > 0 && entry.[0] = '.' then acc
        else walk_dir path rel acc
      else if
        Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
      then (path, rel) :: acc
      else acc)
    acc
    (let entries = Sys.readdir dir in
     Array.sort String.compare entries;
     entries)

let collect_files dirs =
  List.concat_map
    (fun dir ->
      let label = Filename.basename dir in
      walk_dir dir label [] |> List.rev)
    dirs

(* {2 Waivers} *)

let file_waivers (src : Source_file.t) =
  List.fold_left
    (fun (ws, errs) (text, loc) ->
      match Waiver.parse_comment text loc ~known_rules:Rules.all_rules with
      | None -> (ws, errs)
      | Some (Ok w) -> (w :: ws, errs)
      | Some (Error msg) ->
          (ws, Rules.violation src loc "bad-waiver" msg :: errs))
    ([], []) src.comments

(* Apply waivers: drop covered violations, then report stale [allow]
   waivers.  Unused [domain-safe] waivers are tolerated — reachability
   shrinks as code moves, and the annotation stays true. *)
let apply_waivers waivers violations =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (id, ws) -> Hashtbl.replace tbl id ws) waivers;
  let surviving =
    List.filter
      (fun (v : Rules.violation) ->
        let ws = Option.value (Hashtbl.find_opt tbl v.id) ~default:[] in
        match
          List.find_opt
            (fun w -> Waiver.covers w ~rule:v.rule ~line:v.line)
            ws
        with
        | Some w ->
            Waiver.claim w;
            false
        | None -> true)
      violations
  in
  let stale =
    List.concat_map
      (fun (id, ws) ->
        List.filter_map
          (fun (w : Waiver.t) ->
            match (w.used, w.kind) with
            | false, Waiver.Allow rule ->
                Some
                  {
                    Rules.path = id;
                    id;
                    line = w.line;
                    col = 0;
                    rule = "stale-waiver";
                    msg =
                      Printf.sprintf
                        "allow %s waiver matches no violation; delete it"
                        rule;
                  }
            | _ -> None)
          ws)
      waivers
  in
  surviving @ stale

(* {2 The callgraph pass}

   Builds the shared callgraph and runs the three cross-function
   rules: hot-alloc, unsafe-index, shard-ownership.  Attribute waivers
   ([@dynlint.alloc_ok] / [@dynlint.unsafe_ok]) are claimed here —
   they cover findings of their rule on the annotated construct's
   lines — and any waiver left unclaimed becomes a stale-waiver
   violation, exactly like the comment form. *)

type cg_stats = {
  hot_roots : int;  (* [@@dynlint.hot] functions found *)
  unsafe_sites : int;  (* unsafe_* calls in the audited scope *)
  unsafe_guarded : int;  (* of which analyzer-verified *)
  unsafe_waived : int;  (* of which waived by [@dynlint.unsafe_ok] *)
  shard_jobs : string list;  (* Shard_pool jobs the ownership pass saw *)
}

let attr_of_rule = function
  | "hot-alloc" -> "alloc_ok"
  | "unsafe-index" -> "unsafe_ok"
  | r -> r

let callgraph_pass ~config (files : Source_file.t list) =
  let cg = Callgraph.build files in
  let hot_vs = Hot_alloc.check cg in
  let ui =
    Unsafe_index.check cg ~files ~audited:(has_prefix config.unsafe_audited)
  in
  let so =
    Shard_ownership.check cg ~files ~in_scope:(has_prefix config.shard_scope)
  in
  let claim_attr (v : Rules.violation) =
    match
      List.find_opt
        (fun (w : Callgraph.waiver) ->
          String.equal w.Callgraph.rule v.rule
          && String.equal w.Callgraph.w_id v.id
          && v.line >= w.Callgraph.span_start
          && v.line <= w.Callgraph.span_end)
        cg.Callgraph.waivers
    with
    | Some w ->
        w.Callgraph.used <- true;
        false
    | None -> true
  in
  let hot_vs = List.filter claim_attr hot_vs in
  let ui_vs = List.filter claim_attr ui.Unsafe_index.violations in
  let unsafe_waived =
    List.length ui.Unsafe_index.violations - List.length ui_vs
  in
  let so_vs = List.filter claim_attr so.Shard_ownership.violations in
  let attr_bad =
    List.map
      (fun (src, loc, msg) -> Rules.violation src loc "bad-attr" msg)
      cg.Callgraph.bad_attrs
  in
  let path_of_id id =
    match
      List.find_opt
        (fun (s : Source_file.t) -> String.equal s.Source_file.id id)
        files
    with
    | Some s -> s.Source_file.path
    | None -> id
  in
  let stale_attrs =
    List.filter_map
      (fun (w : Callgraph.waiver) ->
        if w.Callgraph.used then None
        else
          Some
            {
              Rules.path = path_of_id w.Callgraph.w_id;
              id = w.Callgraph.w_id;
              line = w.Callgraph.w_line;
              col = 0;
              rule = "stale-waiver";
              msg =
                Printf.sprintf
                  "[@dynlint.%s] waiver matches no %s finding; delete it"
                  (attr_of_rule w.Callgraph.rule)
                  w.Callgraph.rule;
            })
      cg.Callgraph.waivers
  in
  ( hot_vs @ ui_vs @ so_vs @ attr_bad @ stale_attrs,
    {
      hot_roots = List.length (Callgraph.hot_roots cg);
      unsafe_sites = ui.Unsafe_index.sites;
      unsafe_guarded = ui.Unsafe_index.guarded;
      unsafe_waived;
      shard_jobs = so.Shard_ownership.jobs;
    } )

(* {2 Entry points} *)

type report = {
  violations : Rules.violation list;
  files_scanned : int;
  sweep_reachable : string list;
  stats : cg_stats;
}

let run ?(config = default_config) dirs =
  let files =
    List.map
      (fun (path, id) -> Source_file.load ~path ~id)
      (collect_files dirs)
  in
  let waivers, waiver_errs =
    List.fold_left
      (fun (ws, errs) (src : Source_file.t) ->
        let w, e = file_waivers src in
        ((src.id, w) :: ws, e @ errs))
      ([], []) files
  in
  let per_file =
    List.concat_map
      (fun (src : Source_file.t) ->
        Rules.check src ~scope:(scope_of config src.id))
      files
  in
  (* Interface-presence rule. *)
  let ids = List.map (fun (s : Source_file.t) -> s.id) files in
  let missing_mli =
    List.filter_map
      (fun (s : Source_file.t) ->
        match s.kind with
        | Source_file.Mli -> None
        | Source_file.Ml ->
            if
              has_prefix config.mli_required s.id
              && not (List.exists (String.equal (s.id ^ "i")) ids)
            then
              Some
                {
                  Rules.path = s.path;
                  id = s.id;
                  line = 1;
                  col = 0;
                  rule = "missing-mli";
                  msg = "library module has no interface (.mli)";
                }
            else None)
      files
  in
  let ds_violations, sweep_reachable = Domain_safety.check ~files in
  let cg_violations, stats = callgraph_pass ~config files in
  let violations =
    apply_waivers waivers
      (waiver_errs @ per_file @ missing_mli @ ds_violations @ cg_violations)
    |> List.sort (fun (a : Rules.violation) b ->
           match String.compare a.id b.id with
           | 0 -> compare (a.line, a.col, a.rule) (b.line, b.col, b.rule)
           | c -> c)
  in
  { violations; files_scanned = List.length files; sweep_reachable; stats }

(* Lint one in-memory source (fixture tests): the per-file rules plus
   the callgraph pass on the single-file graph.  The driver-level
   interface-presence and reachability rules stay out — they only mean
   something on a whole tree. *)
let lint_source ?(config = default_config) ~id content =
  let tmp = Filename.temp_file "dynlint" (Filename.basename id) in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out_bin tmp in
      output_string oc content;
      close_out oc;
      let src = Source_file.load ~path:tmp ~id in
      let src = { src with Source_file.path = id } in
      let ws, werrs = file_waivers src in
      let cg_violations, _stats = callgraph_pass ~config [ src ] in
      let vs =
        werrs @ Rules.check src ~scope:(scope_of config id) @ cg_violations
      in
      apply_waivers [ (id, ws) ] vs)

(* {2 Rendering} *)

let pp_violation ppf (v : Rules.violation) =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" v.path v.line v.col v.rule v.msg

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let report_to_json r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"schema\":\"dynlint/v2\",";
  Buffer.add_string buf
    (Printf.sprintf
       "\"files_scanned\":%d,\"hot_roots\":%d,\"unsafe_sites\":%d,\
        \"unsafe_guarded\":%d,\"unsafe_waived\":%d,\"violations\":["
       r.files_scanned r.stats.hot_roots r.stats.unsafe_sites
       r.stats.unsafe_guarded r.stats.unsafe_waived);
  List.iteri
    (fun i (v : Rules.violation) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\
            \"severity\":\"%s\",\"msg\":\"%s\"}"
           (json_escape v.id) v.line v.col (json_escape v.rule)
           (Rules.severity_of_rule v.rule)
           (json_escape v.msg)))
    r.violations;
  Buffer.add_string buf "],\"shard_jobs\":[";
  List.iteri
    (fun i j ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\"" (json_escape j)))
    r.stats.shard_jobs;
  Buffer.add_string buf "],\"sweep_reachable\":[";
  List.iteri
    (fun i id ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\"" (json_escape id)))
    r.sweep_reachable;
  Buffer.add_string buf "]}";
  Buffer.contents buf
