(* The CLI's run paths, end to end through the built binary: `run` and
   `sweep` compile their flags into scenario specs and run them through
   Scenario.Runner, so each must print exactly what `scenario run`
   prints for the equivalent spec file, and flag values a spec file may
   not carry must fail as invocation errors (exit 2), not crash. *)

let check = Alcotest.check

(* The binary sits beside this test's build directory; a subprocess,
   not a fork (Unix.fork is unavailable once other tests have spawned
   domains). *)
let exe =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "dynspread_cli.exe" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let with_temp_dir f =
  let dir = Filename.temp_dir "dynspread_cli" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* Run the CLI with [args]; returns (exit code, stdout, stderr). *)
let dynspread ~dir args =
  let out = Filename.concat dir "stdout" and err = Filename.concat dir "stderr" in
  let open_w path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let fd_out = open_w out and fd_err = open_w err in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Alcotest.failf "signal %d" s
  in
  (code, read_file out, read_file err)

let succeed ~dir args =
  match dynspread ~dir args with
  | 0, out, _ -> out
  | code, _, err ->
      Alcotest.failf "dynspread %s: exit %d: %s" (String.concat " " args) code err

(* [scenario run] on a spec file holding [fields]. *)
let scenario_run ~dir ?(engine = []) fields =
  let path = Filename.concat dir "equivalent.scenario.json" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        ({|{ "schema": "dynspread-scenario/v1", |} ^ fields ^ " }"));
  succeed ~dir ([ "scenario"; "run"; path; "--jobs"; "1" ] @ engine)

let engine_flags flags =
  let rec go = function
    | ("--engine" | "--shards") as f :: v :: rest -> f :: v :: go rest
    | _ :: rest -> go rest
    | [] -> []
  in
  go flags

(* (flags of `run`, the equivalent spec's fields). *)
let run_cases =
  [
    ( [ "--algo"; "flooding"; "--env"; "tree-rotator"; "-n"; "12"; "-k"; "16";
        "-s"; "3" ],
      {|"name": "run", "algorithm": "flooding",
        "env": { "family": "tree-rotator" }, "sigma": 3,
        "n": 12, "k": 16, "s": 3, "seed": 42|} );
    ( [ "-n"; "10"; "-k"; "12"; "--seed"; "5" ],
      {|"name": "run", "algorithm": "single-source",
        "env": { "family": "rewiring" }, "sigma": 3,
        "n": 10, "k": 12, "seed": 5|} );
    ( [ "--algo"; "multi-source"; "--env"; "edge-markovian"; "-n"; "12"; "-k";
        "16"; "-s"; "4"; "--sigma"; "2" ],
      {|"name": "run", "algorithm": "multi-source",
        "env": { "family": "edge-markovian" }, "sigma": 2,
        "n": 12, "k": 16, "s": 4, "seed": 42|} );
    ( [ "--algo"; "oblivious-rw"; "--env"; "fresh-random"; "-n"; "12"; "-k";
        "16"; "-s"; "6" ],
      {|"name": "run", "algorithm": "oblivious-rw",
        "env": { "family": "fresh-random" }, "sigma": 3,
        "n": 12, "k": 16, "s": 6, "seed": 42|} );
    ( [ "--algo"; "multi-source"; "--env"; "static"; "-n"; "12"; "-k"; "16";
        "-s"; "3"; "--loss"; "0.1"; "--dup-rate"; "0.05"; "--crash-rate";
        "0.05"; "--max-delay"; "2"; "--fault-seed"; "9" ],
      {|"name": "run", "algorithm": "multi-source",
        "env": { "family": "static" }, "sigma": 3,
        "n": 12, "k": 16, "s": 3, "seed": 42,
        "faults": { "loss": 0.1, "dup": 0.05, "crash": 0.05,
                    "max_delay": 2, "seed": 9 }|} );
    ( [ "--algo"; "single-source"; "--env"; "request-cutter"; "-n"; "10";
        "-k"; "12" ],
      {|"name": "run", "algorithm": "single-source",
        "env": { "family": "request-cutter" },
        "n": 10, "k": 12, "seed": 42|} );
    ( [ "--algo"; "multi-source"; "--env"; "tree-rotator"; "-n"; "12"; "-k";
        "16"; "-s"; "3"; "--engine"; "soa"; "--shards"; "2" ],
      {|"name": "run", "algorithm": "multi-source",
        "env": { "family": "tree-rotator" }, "sigma": 3,
        "n": 12, "k": 16, "s": 3, "seed": 42|} );
    ( [ "--algo"; "flooding"; "--env"; "static"; "-n"; "12"; "-k"; "16";
        "--engine"; "reference" ],
      {|"name": "run", "algorithm": "flooding",
        "env": { "family": "static" }, "sigma": 3,
        "n": 12, "k": 16, "seed": 42|} );
  ]

let test_run_json_is_scenario_run () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun (flags, fields) ->
      check Alcotest.string
        ("run " ^ String.concat " " flags)
        (scenario_run ~dir ~engine:(engine_flags flags) fields)
        (succeed ~dir (("run" :: flags) @ [ "--json" ])))
    run_cases

(* Each row of `sweep --json` is the report of that size's spec:
   seed + n, k = F * n, every node a potential source except in the
   single-source shape. *)
let test_sweep_rows_are_scenario_runs () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun (algo, env, s_of_n) ->
      let rows =
        match
          Obs.Json.of_string
            (succeed ~dir
               [ "sweep"; "--algo"; algo; "--env"; env; "--sizes"; "8,12";
                 "--k-factor"; "3"; "--seed"; "7"; "--json" ])
        with
        | Ok (Obs.Json.List rows) -> rows
        | Ok _ | Error _ -> Alcotest.failf "sweep %s: not a JSON list" algo
      in
      check Alcotest.int "one row per size" 2 (List.length rows);
      List.iter2
        (fun n row ->
          let expected =
            scenario_run ~dir
              (Printf.sprintf
                 {|"name": "sweep", "algorithm": %S, "env": { "family": %S },
                   "sigma": 3, "n": %d, "k": %d, "s": %d, "seed": %d|}
                 algo env n (3 * n) (s_of_n n) (7 + n))
          in
          let normalize s =
            match Obs.Json.of_string s with
            | Ok j -> Obs.Json.to_string j
            | Error e -> Alcotest.failf "bad report JSON: %s" e
          in
          check Alcotest.string
            (Printf.sprintf "sweep %s n=%d" algo n)
            (normalize expected)
            (Obs.Json.to_string row))
        [ 8; 12 ] rows)
    [
      ("single-source", "tree-rotator", fun _ -> 1);
      ("flooding", "rewiring", Fun.id);
      ("oblivious-rw", "tree-rotator", Fun.id);
    ]

(* The two run shapes no spec expresses still report through the
   runner's report builder, and every run's text summary is rendered
   from that report on stdout. *)
let test_reliable_and_lower_bound_reports () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun (flags, name, text_affix) ->
      let report =
        match Obs.Json.of_string (succeed ~dir (("run" :: flags) @ [ "--json" ])) with
        | Ok j -> j
        | Error e -> Alcotest.failf "%s: bad JSON: %s" name e
      in
      check Alcotest.(option string) "report name" (Some name)
        (match Obs.Json.member "name" report with
        | Some (Obs.Json.String s) -> Some s
        | _ -> None);
      List.iter
        (fun key ->
          check Alcotest.bool (name ^ " carries " ^ key) true
            (Option.is_some (Obs.Json.member key report)))
        [ "n"; "k"; "s"; "seed"; "amortized_per_token" ];
      let text = succeed ~dir (("run" :: flags) @ [ "--timeline" ]) in
      List.iter
        (fun affix ->
          check Alcotest.bool
            (Printf.sprintf "%s text shows %S" name affix)
            true
            (Astring.String.is_infix ~affix text))
        [ name ^ ": completed"; "round,messages,learnings"; text_affix ])
    [
      ( [ "--algo"; "multi-source"; "--reliable"; "-n"; "10"; "-k"; "8"; "-s";
          "2"; "--loss"; "0.1" ],
        "run/multi-source/seed=42",
        "reliability wrapper:" );
      ( [ "--algo"; "flooding"; "--env"; "lower-bound"; "-n"; "10"; "-k"; "8" ],
        "run/flooding/seed=42",
        "lower-bound adversary:" );
      ([ "-n"; "10"; "-k"; "8" ], "run/single-source/seed=42", "amortized per token:");
    ]

(* Values Scenario.Spec rejects are usage errors: exit 2, the
   validator's message on stderr, and no uncaught exception. *)
let test_invalid_flags_exit_2 () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun (args, affix) ->
      let code, out, err = dynspread ~dir args in
      let what = String.concat " " args in
      check Alcotest.int (what ^ ": exit 2") 2 code;
      check Alcotest.string (what ^ ": nothing on stdout") "" out;
      check Alcotest.bool
        (Printf.sprintf "%s: stderr names %s" what affix)
        true
        (Astring.String.is_infix ~affix err);
      check Alcotest.bool (what ^ ": no exception") false
        (Astring.String.is_infix ~affix:"exception" err
        || Astring.String.is_infix ~affix:"Fatal error" err))
    [
      ([ "run"; "-k"; "0" ], "\"k\"");
      ([ "run"; "-n"; "1" ], "\"n\"");
      ([ "run"; "--sigma"; "0" ], "\"sigma\"");
      ([ "run"; "--loss"; "1.5" ], "\"loss\"");
      ([ "sweep"; "--sizes"; "1" ], "\"n\"");
    ]

let suite =
  [
    Alcotest.test_case "run --json = scenario run" `Quick
      test_run_json_is_scenario_run;
    Alcotest.test_case "sweep rows = scenario runs" `Quick
      test_sweep_rows_are_scenario_runs;
    Alcotest.test_case "reliable and lower-bound reports" `Quick
      test_reliable_and_lower_bound_reports;
    Alcotest.test_case "invalid flags exit 2" `Quick test_invalid_flags_exit_2;
  ]
