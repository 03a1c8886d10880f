(* dynspread — command-line front end.

   Subcommands mirror the experiment index in DESIGN.md:

     dynspread run         one protocol x environment x instance run
     dynspread experiments the paper's tables/figures (all or by id;
                           --sizes overrides the swept node counts)
     dynspread sweep       size sweeps of one protocol x environment
     dynspread scenario    record / import / validate / run declarative
                           scenario workloads (lib/scenario)
     dynspread serve       long-running gossip daemon: scenario jobs over
                           a streaming rpc socket (lib/serve)
     dynspread submit      client for `serve`: submit specs, stream back
                           reports byte-identical to `scenario run`

   `run` and `sweep` compile their flags into scenario specs and run
   them through lib/scenario, like `scenario run`.
   Every command is deterministic in --seed.  `run` and `sweep` take
   --trace FILE.jsonl (per-round event trace, NDJSON) and --json
   (machine-readable run report on stdout); see README "Observability"
   for the schemas. *)

open Cmdliner

(* {2 Shared arguments} *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let n_arg default =
  Arg.(value & opt int default & info [ "n" ] ~docv:"N" ~doc:"Number of nodes.")

let k_arg default =
  Arg.(
    value & opt int default & info [ "k" ] ~docv:"K" ~doc:"Number of tokens.")

let s_arg =
  Arg.(
    value & opt int 1
    & info [ "s"; "sources" ] ~docv:"S" ~doc:"Number of source nodes.")

let csv_arg =
  Arg.(
    value & flag
    & info [ "csv" ] ~doc:"Emit tables as CSV instead of aligned text.")

let jobs_arg =
  Arg.(
    value
    & opt int (Analysis.Sweep.recommended_jobs ())
    & info [ "jobs"; "j" ] ~docv:"JOBS"
        ~doc:
          "Domains to fan experiment sweep points over (E1/E4/E7); \
           results are bit-identical for every value. Default: the \
           machine's recommended domain count.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the per-round event trace to $(docv) as JSONL (one \
           JSON object per engine event: round_start, graph_change, \
           send, progress, phase, run_end).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Print a machine-readable JSON run report to stdout instead \
           of the human-readable summary.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Enable the runtime invariant layer (ledger conservation, \
           cached bitset counts, per-round connectivity). Dev-profile \
           builds only: release builds compile the checks out and \
           ignore this flag. An invariant failure aborts with exit \
           code 3.")

(* {2 Engine selection}

   Shared by `run` and `scenario run`.  Reports are engine-independent
   (the differential fuzz harness enforces bit identity), so the flag
   only changes wall-clock and memory layout. *)

type engine_choice = Eng_fastpath | Eng_reference | Eng_soa

let engine_conv =
  Arg.enum
    [ ("fastpath", Eng_fastpath); ("reference", Eng_reference);
      ("soa", Eng_soa) ]

let engine_arg =
  Arg.(
    value & opt engine_conv Eng_fastpath
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: $(b,fastpath) (the default optimized \
           sequential engine), $(b,reference) (the pseudocode engine), \
           or $(b,soa) (the mega-scale struct-of-arrays engine: Bigarray \
           word planes, CSR adjacency, and intra-run Domain sharding — \
           see $(b,--shards)). Run reports are bit-identical across \
           engines; only wall-clock changes.")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"SHARDS"
        ~doc:
          "Worker domains for the $(b,soa) engine's intra-run node-space \
           sharding (>= 1). Results are bit-identical for every shard \
           count. Only meaningful with $(b,--engine soa).")

let print_table ~csv t =
  if csv then (
    Obs.Console.out (Analysis.Table.to_csv t);
    Obs.Console.out "")
  else Obs.Console.out (Analysis.Table.render t)

(* {2 Fault-injection flags}

   Shared by `run`: all default to "no faults", and all-zero rates
   compile to [Faults.Plan.none], the identity. *)

let loss_arg =
  Arg.(
    value & opt float 0.
    & info [ "loss" ] ~docv:"P"
        ~doc:"Drop each transmitted message with probability $(docv).")

let dup_arg =
  Arg.(
    value & opt float 0.
    & info [ "dup-rate" ] ~docv:"P"
        ~doc:"Duplicate each surviving message with probability $(docv).")

let crash_arg =
  Arg.(
    value & opt float 0.
    & info [ "crash-rate" ] ~docv:"P"
        ~doc:
          "Crash each live node (full state loss) with per-round \
           probability $(docv).")

let restart_arg =
  Arg.(
    value & opt float 0.25
    & info [ "restart-rate" ] ~docv:"P"
        ~doc:
          "Restart each crashed node (from its initial state) with \
           per-round probability $(docv).")

let max_delay_arg =
  Arg.(
    value & opt int 0
    & info [ "max-delay" ] ~docv:"R"
        ~doc:
          "Delay each surviving message by a uniform 0..$(docv) rounds.")

let fault_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the fault plan's random streams (default: --seed), \
           so the same topology can be replayed under different fault \
           trajectories.")

let reliable_arg =
  Arg.(
    value & flag
    & info [ "reliable" ]
        ~doc:
          "Wrap the unicast protocol in the ack/retransmit reliability \
           wrapper (single-source and multi-source only).")

(* Numeric-flag validation, bench/main.exe style: error line, exit 2 —
   cmdliner's own failures keep their usual exit code, this path is
   for values that parse but make no sense. *)
let bad_flag fmt =
  Printf.ksprintf
    (fun msg ->
      Obs.Console.error ("error: " ^ msg);
      exit 2)
    fmt

(* [None] means "the default fastpath engine" — callers use it to tell
   an explicit engine request apart from the default, since a few run
   shapes (reliable wrapper, oblivious-rw, lower-bound) are not
   engine-parametric. *)
let resolve_engine ~engine ~shards =
  if shards < 1 then bad_flag "--shards %d must be >= 1" shards;
  (match engine with
  | Eng_soa -> ()
  | _ ->
      if shards > 1 then
        bad_flag "--shards %d applies to --engine soa only" shards);
  match engine with
  | Eng_fastpath -> None
  | Eng_reference -> Some Engine.Reference.engine
  | Eng_soa -> Some (Engine.Soa.engine ~shards ())

(* Run [f] with a JSONL sink on --trace FILE, the null sink otherwise.
   [Obs.Sink.close] drains the sink's line buffer before the channel
   goes away, so an abnormal exit never leaves a torn trailing line.
   The close is registered [at_exit] as well as in the [finally]:
   [Stdlib.exit] from a signal handler runs at_exit callbacks but not
   Fun.protect finalizers, and a SIGINT-ed run should still leave a
   well-formed trace of the rounds that happened. *)
let with_trace trace f =
  match trace with
  | None -> f Obs.Sink.null
  | Some path -> (
      match open_out path with
      | exception Sys_error msg ->
          `Error (false, "cannot open trace file: " ^ msg)
      | oc ->
          let sink = Obs.Sink.jsonl oc in
          let closed = ref false in
          let close () =
            if not !closed then begin
              closed := true;
              Obs.Sink.close sink;
              close_out oc
            end
          in
          at_exit close;
          Fun.protect ~finally:close (fun () -> f sink))

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Write a hierarchical span profile (round/phase spans, sweep \
           worker lanes) to $(docv). A $(b,.json) path gets Chrome \
           trace-event JSON (load it in Perfetto or chrome://tracing); a \
           $(b,.folded) or $(b,.txt) path gets folded stacks for flame-graph \
           tools.")

(* Run [f] with an active profiler on --profile FILE, the null profiler
   otherwise.  The profile is written in the [finally], so a run aborted
   by an engine violation still leaves a loadable file covering the
   rounds that did execute.  Like [with_trace], the write is also
   registered [at_exit] (guarded so it happens once) for the
   signal-handler [Stdlib.exit] path. *)
let with_profile profile f =
  match profile with
  | None -> f Obs.Span.null
  | Some path ->
      let prof = Obs.Span.create () in
      let written = ref false in
      let write () =
        if not !written then begin
          written := true;
          match open_out path with
          | exception Sys_error msg ->
              Obs.Console.error ("cannot open profile file: " ^ msg)
          | oc ->
              Fun.protect
                ~finally:(fun () -> close_out oc)
                (fun () ->
                  Obs.Span.write prof oc (Obs.Span.format_of_path path))
        end
      in
      at_exit write;
      Fun.protect ~finally:write (fun () -> f prof)

(* Satellite of the serve PR: long-running commands (serve,
   experiments, fuzz) exit 130 on SIGINT/SIGTERM instead of dying with
   the default disposition — [Stdlib.exit] runs the at_exit drains
   above, so traces and profiles survive an interrupt. *)
let exit_130 = Sys.Signal_handle (fun _ -> Stdlib.exit 130)

let install_signal sg behavior =
  match Sys.set_signal sg behavior with
  | () -> ()
  | exception Invalid_argument _ -> ()
  | exception Sys_error _ -> ()

let exit_on_signals () =
  install_signal Sys.sigint exit_130;
  install_signal Sys.sigterm exit_130

(* {2 run and sweep}

   Both compile their flags into [Scenario.Spec.t]s, check them with
   [Scenario.Spec.validate] (the validator spec files go through) and
   run them through [Scenario.Runner] — the path `scenario run`, the
   serve daemon and the fuzzer take, so `run --json` prints exactly
   what `scenario run` prints for the equivalent spec.  Two run shapes
   have no spec form and keep one small branch each in `run`: the
   [--reliable] wrapper and the lower-bound adversary. *)

let algorithm_arg =
  Arg.(
    value
    & opt (enum Scenario.Spec.algorithms) Scenario.Spec.Single_source
    & info [ "protocol"; "algo" ] ~docv:"PROTOCOL"
        ~doc:
          "One of $(b,flooding), $(b,single-source), $(b,multi-source), \
           $(b,oblivious-rw).")

(* Each environment flag names a spec env at the spec format's default
   parameters; [None] is the lower-bound adversary, which no spec can
   express. *)
let env_arg =
  let rewiring = Some (Scenario.Spec.Rewiring { extra = None; rate = 0.25 }) in
  Arg.(
    value
    & opt
        (enum
           [
             ("static", Some (Scenario.Spec.Static { p = 0.15 }));
             ("tree-rotator", Some Scenario.Spec.Tree_rotator);
             ("rewiring", rewiring);
             ( "edge-markovian",
               Some (Scenario.Spec.Edge_markovian { p_up = None; p_down = 0.3 })
             );
             ("fresh-random", Some (Scenario.Spec.Fresh_random { p = 0.25 }));
             ( "request-cutter",
               Some (Scenario.Spec.Request_cutter { cut_prob = 0.7 }) );
             ("lower-bound", None);
           ])
        rewiring
    & info [ "env" ] ~docv:"ENV"
        ~doc:
          "Environment: $(b,static), $(b,tree-rotator), $(b,rewiring), \
           $(b,edge-markovian), $(b,fresh-random), $(b,request-cutter) \
           (adaptive, unicast only), or $(b,lower-bound) (the Section-2 \
           strongly adaptive adversary, flooding only, $(b,run) only).")

let sigma_arg =
  Arg.(
    value & opt int 3
    & info [ "sigma" ] ~docv:"SIGMA"
        ~doc:"Edge-stability enforced on oblivious environments (>= 1).")

let timeline_arg =
  Arg.(
    value & flag
    & info [ "timeline" ]
        ~doc:
          "After the summary, dump the per-round learning curve as CSV \
           (round,messages,learnings) for plotting.")

(* The spec a set of flags describes.  Sigma only applies to committed
   schedules: for the adaptive adversaries it is capped at 1, so the
   default 3 means nothing there while [--sigma 0] is still rejected.
   The lower-bound adversary ([env = None]) stands on a placeholder
   env: its spec carries the instance shape and the seed, never a
   schedule. *)
let spec_of_flags ~name ~algorithm ~env ~sigma ~n ~k ~s ~seed ~faults =
  let env, sigma =
    match env with
    | Some (Scenario.Spec.Request_cutter _ as cutter) -> (cutter, min sigma 1)
    | Some env -> (env, sigma)
    | None -> (Scenario.Spec.Tree_rotator, min sigma 1)
  in
  {
    Scenario.Spec.name; algorithm; env; sigma; n = Some n; k; s; seed;
    repeats = 1; faults; max_rounds = None;
  }

(* Scenario validation failures are invocation problems, same bucket
   as bad flags: every message to stderr, exit 2. *)
let spec_errors ?(hint = []) header errs =
  Obs.Console.error ("error: " ^ header);
  Obs.Console.lines (List.map (fun e -> "  - " ^ e) errs @ hint);
  exit 2

(* Every problem of every spec, each once, naming the flag each spec
   field comes from. *)
let check_specs specs =
  let add acc e = if List.exists (String.equal e) acc then acc else e :: acc in
  match
    List.fold_left
      (fun acc spec ->
        match Scenario.Spec.validate spec with
        | Ok _ -> acc
        | Error errs -> List.fold_left add acc errs)
      [] specs
  with
  | [] -> ()
  | errs ->
      spec_errors "the flags describe an invalid run:" (List.rev errs)
        ~hint:
          [
            "(spec fields come from -n, -k, -s, --sigma, --seed, and faults \
             from --loss, --dup-rate, --crash-rate, --restart-rate, \
             --max-delay, --fault-seed)";
          ]

let prepare spec =
  match Scenario.Runner.prepare spec with
  | Ok p -> p
  | Error e ->
      Obs.Console.error ("error: " ^ e);
      exit 2

let print_report ~json ~timeline (r : Obs.Report.t) =
  if json then Obs.Console.out (Obs.Json.to_string (Obs.Report.to_json r))
  else begin
    let amortized, rest =
      List.partition
        (fun (key, _) -> String.equal key "amortized_per_token")
        r.extra
    in
    let amortized =
      List.filter_map (fun (_, v) -> Obs.Json.to_float_opt v) amortized
    in
    let fields pairs =
      String.concat " "
        (List.map (fun (key, v) -> key ^ "=" ^ v) pairs)
    in
    List.iter Obs.Console.out
      ([
         Printf.sprintf "%s: %s after %d rounds" r.name
           (if r.completed then "completed" else "NOT completed")
           r.rounds;
         fields
           [
             ("messages", string_of_int r.messages);
             ("tc", string_of_int r.tc);
             ("removals", string_of_int r.removals);
             ("learnings", string_of_int r.learnings);
           ];
         fields (List.map (fun (c, v) -> (c, string_of_int v)) r.class_counts);
       ]
      @ List.map (Printf.sprintf "amortized per token: %.2f") amortized
      @ [
          Printf.sprintf "adversary-competitive (alpha=%g): %.0f" r.alpha
            r.competitive_cost;
          Printf.sprintf "per-node load: max %d, mean %.1f" r.max_load
            r.mean_load;
          fields (List.map (fun (key, v) -> (key, Obs.Json.to_string v)) rest);
        ]);
    if timeline then
      List.iter Obs.Console.out
        (""
        :: "round,messages,learnings"
        :: List.map
             (fun (round, msgs, learned) ->
               Printf.sprintf "%d,%d,%d" round msgs learned)
             r.timeline)
  end

let run_cmd =
  let doc = "Run one protocol in one environment and print the cost ledger." in
  let run algorithm env n k s sigma seed loss dup crash restart max_delay
      fault_seed reliable timeline trace profile json check engine shards =
    Check.set_enabled check;
    let engine = resolve_engine ~engine ~shards in
    let spec =
      spec_of_flags ~name:"run" ~algorithm ~env ~sigma ~n ~k ~s ~seed
        ~faults:
          (Some { Scenario.Spec.loss; dup; crash; restart; max_delay; fault_seed })
    in
    check_specs [ spec ];
    let faulty =
      not (Faults.Plan.is_none (Scenario.Runner.fault_plan spec.faults ~seed))
    in
    let fail msg = `Error (false, msg) in
    match (algorithm, env) with
    | _, _ when reliable && Option.is_some engine ->
        fail
          "--engine selects the engine-parametric protocols' engine; the \
           --reliable wrapper runs on the fastpath engine only"
    | Scenario.Spec.Oblivious_rw, _ when Option.is_some engine ->
        fail "oblivious-rw is not engine-parametric; drop --engine"
    | _, None when Option.is_some engine ->
        fail
          "the lower-bound adversary run is not engine-parametric; drop \
           --engine"
    | (Scenario.Spec.Flooding | Scenario.Spec.Oblivious_rw), _ when reliable ->
        fail
          "--reliable wraps a unicast protocol: use single-source or \
           multi-source"
    | _, None when faulty ->
        fail
          "the lower-bound adversary models worst-case scheduling, not \
           faults; drop the fault flags"
    | ( ( Scenario.Spec.Single_source | Scenario.Spec.Multi_source
        | Scenario.Spec.Oblivious_rw ),
        None ) ->
        fail "lower-bound needs flooding"
    | _, _ -> (
        let prepared = prepare spec in
        let n = prepared.Scenario.Runner.n in
        with_trace trace @@ fun obs ->
        with_profile profile @@ fun prof ->
        let instance () =
          Scenario.Runner.instance algorithm ~n ~k ~s ~seed
        in
        match env with
        | None ->
            let result, _, lb =
              Gossip.Runners.flooding_vs_lower_bound ~instance:(instance ())
                ~seed ~obs ~prof ()
            in
            print_report ~json ~timeline
              (Scenario.Runner.report spec ~n ~seed result);
            if not json then begin
              let history = Adversary.Broadcast_lb.history lb in
              let max_c = List.fold_left (fun a (_, c) -> max a c) 0 history in
              Obs.Console.out
                (Printf.sprintf
                   "lower-bound adversary: max free components %d (log n = \
                    %.1f)"
                   max_c (Gossip.Bounds.logn n))
            end;
            `Ok ()
        | Some _ when reliable ->
            let instance = instance () in
            let faults = Scenario.Runner.fault_plan spec.faults ~seed in
            let env = Scenario.Runner.unicast_env prepared ~seed in
            let result, retransmits =
              match algorithm with
              | Scenario.Spec.Single_source ->
                  let result, _, rt =
                    Gossip.Runners.reliable_single_source ~instance ~env
                      ~faults ~obs ~prof ()
                  in
                  (result, rt)
              | _ ->
                  let result, _, rt =
                    Gossip.Runners.reliable_multi_source ~instance ~env
                      ~faults ~obs ~prof ()
                  in
                  (result, rt)
            in
            print_report ~json ~timeline
              (Scenario.Runner.report spec ~n ~seed result);
            if not json then
              Obs.Console.out
                (Printf.sprintf "reliability wrapper: %d retransmissions"
                   retransmits);
            `Ok ()
        | Some _ ->
            print_report ~json ~timeline
              (Scenario.Runner.run_repeat ?engine ~obs ~prof prepared ~seed);
            `Ok ())
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run $ algorithm_arg $ env_arg $ n_arg 24 $ k_arg 48 $ s_arg
        $ sigma_arg $ seed_arg $ loss_arg $ dup_arg $ crash_arg $ restart_arg
        $ max_delay_arg $ fault_seed_arg $ reliable_arg $ timeline_arg
        $ trace_arg $ profile_arg $ json_arg $ check_arg $ engine_arg
        $ shards_arg))

(* {2 experiments} *)

let experiment_names =
  [
    ("e0", `E0); ("e1", `E1); ("e2", `E2); ("e3", `E3); ("e4", `E4);
    ("e6", `E6); ("e7", `E7); ("e8", `E8); ("e9", `E9); ("e10", `E10);
    ("e11", `E11); ("e12", `E12); ("e13", `E13); ("e14", `E14);
    ("e15", `E15); ("e16", `E16); ("e17", `E17); ("e18", `E18);
  ]

let timings_arg =
  Arg.(
    value & flag
    & info [ "timings" ]
        ~doc:
          "After the tables, print each experiment's wall-clock (from \
           the observability layer's per-experiment spans).")

let experiments_cmd =
  let doc =
    "Regenerate the paper's tables and figures (DESIGN.md experiments)."
  in
  let which =
    Arg.(
      value
      & pos_all (Arg.enum experiment_names) []
      & info [] ~docv:"ID"
          ~doc:
            "Experiment ids (e0 e1 ... e18); default: all.")
  in
  let sizes =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "sizes" ] ~docv:"N,N,..."
          ~doc:
            "Node counts to sweep in the experiments that sweep n (e1, e2, \
             e4, e8, e12, e13, e18); the others ignore it. Default: each \
             experiment's own sizes.")
  in
  let run ids ns csv seed jobs timings profile check =
    Check.set_enabled check;
    exit_on_signals ();
    Option.iter
      (List.iter (fun n -> if n < 2 then bad_flag "--sizes: %d < 2 nodes" n))
      ns;
    let metrics = if timings then Some (Obs.Metrics.create ()) else None in
    let selected =
      match ids with [] -> List.map snd experiment_names | _ :: _ -> ids
    in
    with_profile profile @@ fun prof ->
    List.iter
      (fun id ->
        let table =
          match id with
          | `E0 -> Analysis.Experiments.environments ?metrics ~seed ()
          | `E1 -> Analysis.Experiments.table1 ?ns ~jobs ?metrics ~prof ~seed ()
          | `E2 -> Analysis.Experiments.lower_bound ?ns ?metrics ~seed ()
          | `E3 -> Analysis.Experiments.free_edges ?metrics ~seed ()
          | `E4 ->
              Analysis.Experiments.single_source ?ns ~jobs ?metrics ~prof ~seed
                ()
          | `E6 -> Analysis.Experiments.multi_source ?metrics ~seed ()
          | `E7 -> Analysis.Experiments.rw_scaling ~jobs ?metrics ~prof ~seed ()
          | `E8 -> Analysis.Experiments.static_baseline ?ns ?metrics ~seed ()
          | `E9 -> Analysis.Experiments.time_vs_messages ?metrics ~seed ()
          | `E10 -> Analysis.Experiments.ablation ?metrics ~seed ()
          | `E11 -> Analysis.Experiments.rw_tradeoff ?metrics ~seed ()
          | `E12 -> Analysis.Experiments.coding_gap ?ns ?metrics ~seed ()
          | `E13 -> Analysis.Experiments.leader_election ?ns ?metrics ~seed ()
          | `E14 -> Analysis.Experiments.adaptivity ?metrics ~seed ()
          | `E15 -> Analysis.Experiments.robustness_loss ?metrics ~seed ()
          | `E16 -> Analysis.Experiments.robustness_crash ?metrics ~seed ()
          | `E17 -> Scenario.Experiment.real_trace ~jobs ?metrics ~seed ()
          | `E18 -> Analysis.Experiments.mega ?ns ?metrics ~seed ()
        in
        print_table ~csv table)
      selected;
    match metrics with
    | None -> ()
    | Some m ->
        print_table ~csv
          (Analysis.Table.make ~title:"experiment wall-clock"
             ~columns:[ "experiment"; "seconds" ]
             (List.filter_map
                (fun name ->
                  match Obs.Metrics.summary m name with
                  | Some s -> Some [ name; Printf.sprintf "%.3f" s.Obs.Metrics.sum ]
                  | None -> None)
                (Obs.Metrics.names m)))
  in
  Cmd.v
    (Cmd.info "experiments" ~doc)
    Term.(
      const run $ which $ sizes $ csv_arg $ seed_arg $ jobs_arg $ timings_arg
      $ profile_arg $ check_arg)

(* {2 sweep} *)

let sweep_cmd =
  let doc =
    "Sweep node counts for one protocol x environment; one table row per \
     size (use --csv or --json for machine-readable output)."
  in
  let sizes_arg =
    Arg.(
      value
      & opt (list int) [ 8; 16; 32; 64 ]
      & info [ "sizes" ] ~docv:"N,N,..." ~doc:"Node counts to sweep.")
  in
  let k_factor_arg =
    Arg.(
      value & opt int 2
      & info [ "k-factor" ] ~docv:"F" ~doc:"Tokens per size: k = F * n.")
  in
  let run algorithm env sizes k_factor sigma seed csv trace json =
    match env with
    | None -> `Error (false, "the lower-bound adversary cannot be swept")
    | Some _ ->
        (* One spec per size, seeded [seed + n]: every node a potential
           source except in the single-source shape. *)
        let specs =
          List.map
            (fun n ->
              spec_of_flags ~name:"sweep" ~algorithm ~env ~sigma ~n
                ~k:(max 1 (k_factor * n))
                ~s:(match algorithm with Scenario.Spec.Single_source -> 1 | _ -> n)
                ~seed:(seed + n) ~faults:None)
            sizes
        in
        check_specs specs;
        with_trace trace @@ fun obs ->
        let runs =
          List.map
            (fun (spec : Scenario.Spec.t) ->
              ( spec,
                Scenario.Runner.run_repeat ~obs (prepare spec) ~seed:spec.seed ))
            specs
        in
        if json then
          Obs.Console.out
            (Obs.Json.to_string
               (Obs.Json.List
                  (List.map (fun (_, r) -> Obs.Report.to_json r) runs)))
        else
          print_table ~csv
            (Analysis.Table.make ~title:"size sweep"
               ~columns:
                 [ "n"; "k"; "done"; "rounds"; "messages"; "TC"; "amortized";
                   "amortized (comp.)" ]
               (List.map
                  (fun ((spec : Scenario.Spec.t), (r : Obs.Report.t)) ->
                    let k = float_of_int spec.k in
                    [
                      Option.fold ~none:"" ~some:string_of_int spec.n;
                      string_of_int spec.k;
                      (if r.completed then "yes" else "NO");
                      string_of_int r.rounds;
                      Analysis.Table.fint r.messages;
                      Analysis.Table.fint r.tc;
                      Analysis.Table.ffloat (float_of_int r.messages /. k);
                      Analysis.Table.ffloat (r.competitive_cost /. k);
                    ])
                  runs));
        `Ok ()
  in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(
      ret
        (const run $ algorithm_arg $ env_arg $ sizes_arg $ k_factor_arg
        $ sigma_arg $ seed_arg $ csv_arg $ trace_arg $ json_arg))

(* {2 scenario} *)

let load_spec path =
  match Scenario.Spec.load path with
  | Ok spec -> spec
  | Error errs -> spec_errors (path ^ " is not a valid scenario spec:") errs

let output_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Trace file to write (NDJSON).")

let scenario_run_cmd =
  let doc =
    "Execute a scenario spec: one JSON run report per repeat, one per line \
     on stdout."
  in
  let spec_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SPEC" ~doc:"Scenario spec file (JSON).")
  in
  let run path jobs profile check engine shards =
    Check.set_enabled check;
    let engine = resolve_engine ~engine ~shards in
    let spec = load_spec path in
    with_profile profile @@ fun prof ->
    match
      Scenario.Runner.run ~jobs ~base_dir:(Filename.dirname path) ~prof
        ?engine spec
    with
    | Error e ->
        Obs.Console.error ("error: " ^ e);
        exit 2
    | Ok reports ->
        Array.iter
          (fun r ->
            Obs.Console.out (Obs.Json.to_string (Obs.Report.to_json r)))
          reports
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run $ spec_pos $ jobs_arg $ profile_arg $ check_arg $ engine_arg
      $ shards_arg)

let scenario_record_cmd =
  let doc =
    "Record a spec's built-in oblivious environment (at the spec's seed) \
     into a replayable trace file."
  in
  let spec_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SPEC" ~doc:"Scenario spec file (JSON).")
  in
  let rounds_arg =
    Arg.(
      value & opt int 0
      & info [ "rounds" ] ~docv:"R"
          ~doc:
            "Rounds to record. Default (0): the spec's max_rounds if set, \
             else the algorithm's full default round cap — guaranteeing the \
             trace covers any replayed run of the same spec bit-for-bit.")
  in
  let run path out rounds =
    let spec = load_spec path in
    let fail fmt =
      Printf.ksprintf
        (fun m ->
          Obs.Console.error ("error: " ^ m);
          exit 2)
        fmt
    in
    let n =
      match spec.Scenario.Spec.n with
      | Some n -> n
      | None -> fail "%s: recording needs an explicit n" path
    in
    if rounds < 0 then fail "--rounds %d is negative" rounds;
    let rounds =
      if rounds > 0 then rounds
      else
        match spec.Scenario.Spec.max_rounds with
        | Some r -> r
        | None -> (
            match spec.Scenario.Spec.algorithm with
            | Scenario.Spec.Flooding ->
                Gossip.Runners.default_broadcast_cap ~n ~k:spec.Scenario.Spec.k
            | Scenario.Spec.Single_source | Scenario.Spec.Multi_source ->
                Gossip.Runners.default_unicast_cap ~n ~k:spec.Scenario.Spec.k
            | Scenario.Spec.Oblivious_rw ->
                let phase1, phase2 =
                  Gossip.Runners.default_rw_caps ~n ~k:spec.Scenario.Spec.k
                in
                phase1 + phase2)
    in
    match
      Scenario.Runner.builtin_schedule ~env:spec.Scenario.Spec.env
        ~sigma:spec.Scenario.Spec.sigma ~n ~seed:spec.Scenario.Spec.seed
    with
    | None ->
        fail
          "%s: only the built-in oblivious environments can be recorded here \
           (traces are already recorded; the request-cutter is adaptive — \
           capture its realized schedule with the library's Record wrappers)"
          path
    | Some schedule -> (
        let trace =
          Scenario.Record.of_schedule ~seed:spec.Scenario.Spec.seed
            ~provenance:
              ("oblivious:" ^ Scenario.Spec.env_family spec.Scenario.Spec.env)
            ~rounds schedule
        in
        match Scenario.Trace_io.save out trace with
        | Ok () ->
            Obs.Console.note
              (Printf.sprintf "recorded %d rounds of %s (n=%d, seed=%d) to %s"
                 rounds
                 (Scenario.Spec.env_family spec.Scenario.Spec.env)
                 n spec.Scenario.Spec.seed out)
        | Error e ->
            Obs.Console.error ("error: " ^ e);
            exit 1)
  in
  Cmd.v
    (Cmd.info "record" ~doc)
    Term.(const run $ spec_pos $ output_arg $ rounds_arg)

let scenario_import_cmd =
  let doc =
    "Import a contact-sequence CSV (t,u,v[,duration] lines, # comments) \
     into a round-bucketed trace file."
  in
  let csv_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"CSV" ~doc:"Contact-sequence file.")
  in
  let bucket_arg =
    Arg.(
      value & opt float 20.
      & info [ "bucket" ] ~docv:"SECONDS"
          ~doc:"Time-bucket length: contacts within one bucket form one round.")
  in
  let no_repair_arg =
    Arg.(
      value & flag
      & info [ "no-repair" ]
          ~doc:
            "Keep disconnected rounds as-is instead of adding the minimal \
             connecting edges (the engines will then reject the trace at \
             run time).")
  in
  let run path out bucket no_repair =
    if not (Float.is_finite bucket && bucket > 0.) then begin
      Obs.Console.error
        (Printf.sprintf "error: --bucket %g is not a positive duration" bucket);
      exit 2
    end;
    match Scenario.Contacts.import_file ~bucket ~repair:(not no_repair) path with
    | Error e ->
        Obs.Console.error ("error: " ^ e);
        exit 2
    | Ok (trace, st) -> (
        match Scenario.Trace_io.save out trace with
        | Ok () ->
            Obs.Console.lines
              [
                Printf.sprintf "imported %s -> %s" path out;
                Printf.sprintf
                  "  %d contacts -> %d nodes, %d rounds (%d empty buckets \
                   skipped)"
                  st.Scenario.Contacts.contacts st.Scenario.Contacts.nodes
                  st.Scenario.Contacts.imported_rounds
                  st.Scenario.Contacts.empty_buckets;
                Printf.sprintf
                  "  normalized: %d self-loops dropped, %d duplicates \
                   collapsed, %d out-of-order rows"
                  st.Scenario.Contacts.self_loops
                  st.Scenario.Contacts.duplicates
                  st.Scenario.Contacts.out_of_order;
                Printf.sprintf
                  "  connectivity repair: %d rounds patched with %d edges"
                  st.Scenario.Contacts.repaired_rounds
                  st.Scenario.Contacts.repaired_edges;
              ]
        | Error e ->
            Obs.Console.error ("error: " ^ e);
            exit 1)
  in
  Cmd.v
    (Cmd.info "import" ~doc)
    Term.(const run $ csv_pos $ output_arg $ bucket_arg $ no_repair_arg)

let scenario_validate_cmd =
  let doc =
    "Validate scenario specs and trace files (sniffed by their schema \
     field); exit 2 if any file has a problem."
  in
  let files_pos =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Spec or trace files.")
  in
  (* Sniff by the leading document's "schema" field: a spec file is one
     (possibly multi-line) JSON object, a trace file is NDJSON whose
     first line is the header. *)
  let schema_of path =
    match open_in_bin path with
    | exception Sys_error msg -> Error msg
    | ic ->
        let content =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        let first_doc =
          match Obs.Json.of_string content with
          | Ok j -> Some j
          | Error _ -> (
              match String.index_opt content '\n' with
              | None -> None
              | Some i -> (
                  match Obs.Json.of_string (String.sub content 0 i) with
                  | Ok j -> Some j
                  | Error _ -> None))
        in
        (match first_doc with
        | Some j -> (
            match Obs.Json.member "schema" j with
            | Some (Obs.Json.String s) -> Ok s
            | _ -> Error "leading JSON document has no \"schema\" field")
        | None -> Error "not JSON/NDJSON (cannot read a schema field)")
  in
  let run files =
    let failed = ref false in
    let problem path msgs =
      failed := true;
      Obs.Console.error (Printf.sprintf "%s: INVALID" path);
      Obs.Console.lines (List.map (fun m -> "  - " ^ m) msgs)
    in
    List.iter
      (fun path ->
        match schema_of path with
        | Error e -> problem path [ e ]
        | Ok s when String.equal s Scenario.Spec.schema_name -> (
            match Scenario.Spec.load path with
            | Error errs -> problem path errs
            | Ok spec ->
                Obs.Console.note
                  (Printf.sprintf "%s: valid scenario spec (%s, %s env%s)"
                     path
                     (Scenario.Spec.algorithm_name spec.Scenario.Spec.algorithm)
                     (Scenario.Spec.env_family spec.Scenario.Spec.env)
                     (match spec.Scenario.Spec.n with
                     | Some n -> Printf.sprintf ", n=%d" n
                     | None -> "")))
        | Ok s when String.equal s Scenario.Trace_io.schema_name -> (
            match Scenario.Trace_io.load path with
            | Error e -> problem path [ e ]
            | Ok trace -> (
                match Scenario.Trace_io.validate trace with
                | Error e -> problem path [ e ]
                | Ok st -> (
                    match st.Scenario.Trace_io.first_disconnected with
                    | Some r ->
                        problem path
                          [
                            Printf.sprintf
                              "round %d is disconnected — the engines will \
                               reject this trace; re-import without \
                               --no-repair"
                              r;
                          ]
                    | None ->
                        Obs.Console.note
                          (Printf.sprintf
                             "%s: valid trace (n=%d, %d rounds, TC=%d, max \
                              %d edges/round)"
                             path trace.Scenario.Trace_io.header.n
                             st.Scenario.Trace_io.stat_rounds
                             st.Scenario.Trace_io.stat_tc
                             st.Scenario.Trace_io.stat_max_edges))))
        | Ok s ->
            problem path
              [
                Printf.sprintf
                  "unknown schema %S (expected %S or %S)" s
                  Scenario.Spec.schema_name Scenario.Trace_io.schema_name;
              ])
      files;
    if !failed then exit 2
  in
  Cmd.v (Cmd.info "validate" ~doc) Term.(const run $ files_pos)

(* {2 fuzz} *)

let fuzz_cmd =
  let doc =
    "Differential fuzzing: run randomly generated scenario cases through a \
     pair of engines (by default a generated per-case pairing: the \
     pseudocode reference engine or the sharded SoA engine against the \
     optimized fastpath engine) and require byte-identical run reports and \
     realized schedules. Each divergence is shrunk to a minimal case and \
     saved to the corpus directory as a replayable trace + scenario spec \
     pair. Exit 0 when all cases agree, 1 on any mismatch, 2 on bad flags."
  in
  let runs_arg =
    Arg.(
      value & opt int 256
      & info [ "runs" ] ~docv:"N" ~doc:"Number of generated cases.")
  in
  let corpus_arg =
    Arg.(
      value & opt string "fuzz-corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Directory for shrunk counterexamples (created on the first \
             mismatch; untouched on a clean run).")
  in
  let shrink_budget_arg =
    Arg.(
      value & opt int 400
      & info [ "shrink-budget" ] ~docv:"B"
          ~doc:
            "Maximum shrink-predicate evaluations (each one run of both \
             engines) per counterexample.")
  in
  let engines_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("generated", `Generated); ("reference", `Reference);
               ("soa", `Soa 1); ("soa-2", `Soa 2); ("soa-4", `Soa 4);
             ])
          `Generated
      & info [ "engines" ] ~docv:"PAIRING"
          ~doc:
            "Engine pairing: $(b,generated) (default) draws a per-case \
             pairing — reference or SoA at shard counts 1/2/4, each \
             against the fastpath engine; $(b,reference), $(b,soa), \
             $(b,soa-2) or $(b,soa-4) pin that engine against the \
             fastpath engine on every case.")
  in
  let run runs seed corpus jobs shrink_budget json profile check engines =
    Check.set_enabled check;
    exit_on_signals ();
    if runs < 1 then bad_flag "--runs %d must be >= 1" runs;
    if seed < 0 then bad_flag "--seed %d is negative" seed;
    if shrink_budget < 1 then
      bad_flag "--shrink-budget %d must be >= 1" shrink_budget;
    if jobs < 1 then bad_flag "--jobs %d must be >= 1" jobs;
    let metrics = Obs.Metrics.create () in
    let engine_a =
      match engines with
      | `Generated -> None
      | `Reference -> Some Engine.Reference.engine
      | `Soa shards -> Some (Engine.Soa.engine ~shards ())
    in
    with_profile profile @@ fun prof ->
    let outcome =
      Fuzz.Campaign.run ?engine_a ~jobs ~metrics ~prof ~shrink_budget ~runs
        ~seed ()
    in
    let saved = Fuzz.Campaign.save_corpus ~dir:corpus outcome in
    let mismatches = outcome.Fuzz.Campaign.mismatches in
    if json then
      Obs.Console.out
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("cases", Obs.Json.Int runs); ("seed", Obs.Json.Int seed);
                ("mismatches", Obs.Json.Int (List.length mismatches));
                ( "shrink_steps",
                  Obs.Json.Int (Obs.Metrics.counter metrics "fuzz/shrink_steps")
                );
                ( "corpus",
                  Obs.Json.List
                    (List.map
                       (fun f ->
                         Obs.Json.String (Filename.concat corpus f))
                       saved) );
              ]))
    else begin
      Obs.Console.note
        (Printf.sprintf "fuzz: %d cases, seed %d: %d mismatch(es)" runs seed
           (List.length mismatches));
      List.iter2
        (fun (m : Fuzz.Campaign.mismatch) spec_file ->
          Obs.Console.error
            (Printf.sprintf
               "mismatch: case %d (%s, n=%d k=%d s=%d): %s — shrunk to n=%d \
                %d round(s), saved as %s"
               m.Fuzz.Campaign.case.Fuzz.Case.id
               (Fuzz.Case.algo_name m.Fuzz.Campaign.case.Fuzz.Case.algo)
               m.Fuzz.Campaign.case.Fuzz.Case.n
               m.Fuzz.Campaign.case.Fuzz.Case.k
               m.Fuzz.Campaign.case.Fuzz.Case.s m.Fuzz.Campaign.detail
               m.Fuzz.Campaign.shrunk.Fuzz.Case.n
               (Fuzz.Case.period m.Fuzz.Campaign.shrunk)
               (Filename.concat corpus spec_file)))
        mismatches saved
    end;
    match mismatches with [] -> () | _ :: _ -> exit 1
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ runs_arg $ seed_arg $ corpus_arg $ jobs_arg
      $ shrink_budget_arg $ json_arg $ profile_arg $ check_arg $ engines_arg)

let scenario_cmd =
  let doc =
    "Declarative scenario workloads: record built-in environments as \
     traces, import real contact data, validate, and run."
  in
  Cmd.group
    (Cmd.info "scenario" ~doc)
    [
      scenario_run_cmd; scenario_record_cmd; scenario_import_cmd;
      scenario_validate_cmd;
    ]

(* {2 serve / submit}

   The long-running daemon and its client.  `serve` owns a persistent
   Domain pool behind a unix-domain (or TCP) socket speaking
   dynspread-rpc/v1 (NDJSON frames, see DESIGN.md); `submit` sends
   specs, streams reports back byte-identical to `scenario run`, and
   maps outcomes onto the usual exit codes (0 completed, 1 cancelled,
   3 failed, 2 for IO/protocol/validation problems). *)

let parse_hostport ~flag s =
  let fail () = bad_flag "--%s %S is not HOST:PORT" flag s in
  match String.rindex_opt s ':' with
  | None -> fail ()
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      let host = if String.equal host "" then "127.0.0.1" else host in
      match int_of_string_opt port with
      | Some p when p >= 0 && p <= 65535 -> (host, p)
      | Some _ | None -> fail ())

let socket_arg =
  Arg.(
    value & opt string "dynspread.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain rpc socket path (an empty string disables the \
           unix listener).")

let serve_cmd =
  let doc =
    "Run the gossip daemon: accept scenario submissions over a streaming \
     NDJSON rpc socket, schedule them over a persistent domain pool."
  in
  let listen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:"Also accept rpc sessions over TCP.")
  in
  let metrics_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Answer HTTP $(b,GET /metrics) (Prometheus text format, \
             namespace $(b,dynspread_serve)) on 127.0.0.1:$(docv).")
  in
  let workers_arg =
    Arg.(
      value
      & opt int (Analysis.Sweep.recommended_jobs ())
      & info [ "workers" ] ~docv:"W"
          ~doc:
            "Worker domains in the job pool (spawned once, reused across \
             jobs). Default: the machine's recommended domain count.")
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 128
      & info [ "queue-cap" ] ~docv:"Q"
          ~doc:
            "Bounded admission queue: submissions beyond $(docv) pending \
             jobs are rejected with an explicit backpressure frame instead \
             of queued without limit.")
  in
  let run socket listen metrics_port workers queue_cap check =
    Check.set_enabled check;
    if workers < 1 then bad_flag "--workers %d must be >= 1" workers;
    if queue_cap < 1 then bad_flag "--queue-cap %d must be >= 1" queue_cap;
    let listen = Option.map (parse_hostport ~flag:"listen") listen in
    let socket = if String.equal socket "" then None else Some socket in
    (match (socket, listen) with
    | None, None -> bad_flag "serve needs --socket PATH or --listen HOST:PORT"
    | Some _, _ | _, Some _ -> ());
    let metrics =
      Option.map
        (fun p ->
          if p < 0 || p > 65535 then
            bad_flag "--metrics-port %d is out of range" p;
          ("127.0.0.1", p))
        metrics_port
    in
    (* First signal: flip [stop], the event loop cancels every job at
       its next round boundary, flushes terminal frames, and [run]
       returns [`Signalled].  Second signal: stop waiting, exit 130
       now (at_exit drains still run). *)
    let stop = Atomic.make 0 in
    install_signal Sys.sigpipe Sys.Signal_ignore;
    let graceful =
      Sys.Signal_handle
        (fun _ -> if Atomic.fetch_and_add stop 1 >= 1 then Stdlib.exit 130)
    in
    install_signal Sys.sigint graceful;
    install_signal Sys.sigterm graceful;
    (match socket with
    | Some path ->
        Obs.Console.note
          (Printf.sprintf "serve: rpc on %s (%d worker(s), queue cap %d)"
             path workers queue_cap)
    | None -> ());
    (match listen with
    | Some (h, p) -> Obs.Console.note (Printf.sprintf "serve: rpc on %s:%d" h p)
    | None -> ());
    (match metrics with
    | Some (h, p) ->
        Obs.Console.note
          (Printf.sprintf "serve: metrics on http://%s:%d/metrics" h p)
    | None -> ());
    match
      Serve.Server.run
        { Serve.Server.socket; listen; metrics; workers; queue_cap; stop }
    with
    | `Completed -> ()
    | `Signalled -> exit 130
    | exception Serve.Server.Startup_error msg ->
        Obs.Console.error ("error: " ^ msg);
        exit 2
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ listen_arg $ metrics_port_arg $ workers_arg
      $ queue_cap_arg $ check_arg)

let submit_cmd =
  let doc =
    "Submit scenario specs to a running serve daemon and stream the \
     reports back (byte-identical to $(b,dynspread scenario run))."
  in
  let specs_pos =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SPEC"
          ~doc:"Scenario spec files (JSON), submitted in order.")
  in
  let connect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:"Reach the daemon over TCP instead of the unix socket.")
  in
  let events_arg =
    Arg.(
      value & flag
      & info [ "events" ]
          ~doc:
            "Stream the job's dynspread-trace/v1 events to stderr while \
             it runs (reports stay on stdout).")
  in
  let status_arg =
    Arg.(
      value & flag
      & info [ "status" ] ~doc:"Print the daemon's job table and exit.")
  in
  let job_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "job" ] ~docv:"N" ~doc:"Restrict $(b,--status) to one job.")
  in
  let cancel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cancel" ] ~docv:"N" ~doc:"Cancel job N and exit.")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"Ask the daemon to drain its queue and exit.")
  in
  let tag_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tag" ] ~docv:"TAG"
          ~doc:
            "Correlation tag echoed in the daemon's accepted/rejected \
             frames. Default: the spec file's basename.")
  in
  let abs_dir path =
    let d = Filename.dirname path in
    if Filename.is_relative d then Filename.concat (Sys.getcwd ()) d else d
  in
  let run specs socket connect engine shards events status job cancel_id
      shutdown_flag tag =
    install_signal Sys.sigpipe Sys.Signal_ignore;
    exit_on_signals ();
    if shards < 1 then bad_flag "--shards %d must be >= 1" shards;
    (match engine with
    | Eng_soa -> ()
    | Eng_fastpath | Eng_reference ->
        if shards > 1 then
          bad_flag "--shards %d applies to --engine soa only" shards);
    let engine_name =
      match engine with
      | Eng_fastpath -> None
      | Eng_reference -> Some "reference"
      | Eng_soa -> Some "soa"
    in
    let shards_opt =
      match engine with
      | Eng_soa -> Some shards
      | Eng_fastpath | Eng_reference -> None
    in
    let target =
      match connect with
      | Some hp ->
          let host, port = parse_hostport ~flag:"connect" hp in
          Serve.Client.Tcp (host, port)
      | None ->
          if String.equal socket "" then
            bad_flag "submit needs --socket PATH or --connect HOST:PORT"
          else Serve.Client.Unix_path socket
    in
    let io_guard f =
      match f () with
      | v -> v
      | exception Serve.Client.Io_error msg ->
          Obs.Console.error ("error: " ^ msg);
          exit 2
    in
    let c = io_guard (fun () -> Serve.Client.connect target) in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    io_guard @@ fun () ->
    if shutdown_flag then begin
      Serve.Client.shutdown c;
      Obs.Console.note "daemon is draining"
    end
    else
      match cancel_id with
      | Some jid -> (
          match Serve.Client.cancel c ~job:jid with
          | Ok was ->
              Obs.Console.note
                (Printf.sprintf "job %d cancelled (was %s)" jid was)
          | Error reason ->
              Obs.Console.error ("error: " ^ reason);
              exit 2)
      | None ->
          if status then begin
            let jobs, depth, running = Serve.Client.status c ?job () in
            List.iter
              (fun (v : Serve.Rpc.job_view) ->
                Obs.Console.out
                  (Printf.sprintf "%d\t%s\t%s\t%d" v.Serve.Rpc.job
                     v.Serve.Rpc.name v.Serve.Rpc.state v.Serve.Rpc.reports))
              jobs;
            Obs.Console.note
              (Printf.sprintf "queued %d, running %d" depth running)
          end
          else begin
            (match specs with
            | [] -> bad_flag "submit needs at least one SPEC file"
            | _ :: _ -> ());
            let worst = ref 0 in
            List.iter
              (fun path ->
                let raw =
                  match
                    In_channel.with_open_bin path In_channel.input_all
                  with
                  | s -> s
                  | exception Sys_error msg ->
                      Obs.Console.error
                        (Printf.sprintf "error: cannot read %s: %s" path msg);
                      exit 2
                in
                let spec_json =
                  match Obs.Json.of_string raw with
                  | Ok j -> j
                  | Error e ->
                      Obs.Console.error
                        (Printf.sprintf "error: %s is not JSON: %s" path e);
                      exit 2
                in
                let sub =
                  {
                    Serve.Rpc.tag =
                      (match tag with
                      | Some _ -> tag
                      | None -> Some (Filename.basename path));
                    spec = spec_json;
                    base_dir = Some (abs_dir path);
                    engine = engine_name;
                    shards = shards_opt;
                    events;
                  }
                in
                match
                  Serve.Client.submit_await c sub
                    ~on_event:(fun line -> Obs.Console.note line)
                    ~on_report:(fun _ line -> Obs.Console.out line)
                with
                | Error reason ->
                    Obs.Console.error
                      (Printf.sprintf "error: %s: %s" path reason);
                    exit 2
                | Ok fin -> (
                    match fin.Serve.Client.outcome with
                    | "completed" -> ()
                    | "cancelled" ->
                        Obs.Console.note
                          (Printf.sprintf
                             "%s: job %d cancelled after %d report(s)" path
                             fin.Serve.Client.job fin.Serve.Client.reports);
                        if !worst < 1 then worst := 1
                    | "failed" ->
                        Obs.Console.error
                          (Printf.sprintf "%s: job %d failed: %s" path
                             fin.Serve.Client.job
                             (Option.value fin.Serve.Client.reason
                                ~default:"unknown failure"));
                        worst := 3
                    | other ->
                        Obs.Console.error
                          (Printf.sprintf
                             "%s: job %d ended in unknown state %S" path
                             fin.Serve.Client.job other);
                        worst := 3))
              specs;
            if !worst > 0 then exit !worst
          end
  in
  Cmd.v
    (Cmd.info "submit" ~doc)
    Term.(
      const run $ specs_pos $ socket_arg $ connect_arg $ engine_arg
      $ shards_arg $ events_arg $ status_arg $ job_arg $ cancel_arg
      $ shutdown_arg $ tag_arg)

let main_cmd =
  let doc =
    "information spreading in adversarial dynamic networks (Ahmadi et al., \
     ICDCS 2019)"
  in
  let info = Cmd.info "dynspread" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      run_cmd; experiments_cmd; sweep_cmd; scenario_cmd; fuzz_cmd; serve_cmd;
      submit_cmd;
    ]

(* The engine's violation exceptions mean a protocol or adversary
   broke the model mid-run — a bug in what was wired together, not in
   the user's invocation.  Catch them at the command boundary and turn
   them into a one-line diagnostic with a distinct exit code (3, vs
   cmdliner's own codes for CLI misuse). *)
let () =
  (* [~catch:false]: cmdliner's default handler would swallow these as
     "internal error" backtraces before the matches below could run. *)
  match Cmd.eval ~catch:false main_cmd with
  | code -> exit code
  | exception Engine.Engine_error.Protocol_violation msg ->
      Obs.Console.error ("dynspread: protocol violation: " ^ msg);
      exit 3
  | exception Engine.Engine_error.Adversary_violation msg ->
      Obs.Console.error ("dynspread: adversary violation: " ^ msg);
      exit 3
  | exception Check.Check_failed msg ->
      Obs.Console.error ("dynspread: invariant check failed: " ^ msg);
      exit 3
  (* Asking a finite recorded schedule for a round it does not have is
     an invocation problem (the trace is too short for the run), not a
     model violation — same exit bucket as bad flags and invalid
     specs. *)
  | exception Engine.Engine_error.Schedule_exhausted { round; available } ->
      Obs.Console.error
        (Printf.sprintf
           "dynspread: trace exhausted: round %d requested but only %d \
            rounds recorded"
           round available);
      exit 2
