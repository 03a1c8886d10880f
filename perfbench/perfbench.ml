(* The dynspread benchmark: one workload per invocation.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
       [--dynspread EXE] [--work-dir DIR] [--benchmark FILE]

   Prints every metric of the pass (end-to-end untraced, per-layer
   traced) as a table, then one JSON result line.  Exits 1 when an
   output is wrong, 2 on a usage or environment problem. *)

open Perfbench_core

let default_seed = 1

(* Digests of each batch part's report at [default_seed]: a change that
   alters what the program computes fails here, not just in timing. *)
let golden =
  [
    ("ss-rotator", "81042acb1d691e2408713284586e3211");
    ("ms-cutter", "49b2353fa9863a57740ad72d78af353e");
    ("static", "3f459c13fe70adfc056126f3a81fc5aa");
    ("churn", "06dcda193946982954f943d3f74a0587");
  ]

type failures = { mutable attempted : int; mutable failed : string list }

let fail f fmt = Printf.ksprintf (fun m -> f.failed <- m :: f.failed) fmt
let sum = List.fold_left ( +. ) 0.
let sum_by f xs = sum (List.map f xs)
let now_s = Clock.now_s

(* {2 Batch workloads} *)

let check_result f ~seed (r : Batch.result) =
  f.attempted <- f.attempted + 1;
  (match Batch.check_report r with Ok () -> () | Error e -> fail f "%s" e);
  if seed = default_seed then
    let digest = Digest.to_hex (Digest.string r.Batch.line) in
    match List.assoc_opt r.Batch.part.Batch.name golden with
    | Some d when String.equal d digest -> ()
    | _ ->
        fail f "%s: report digest %s differs from the committed seed-%d digest"
          r.Batch.part.Batch.name digest seed

let run_pass f ~seed probe parts =
  List.map
    (fun p ->
      let r = Batch.run_part probe p in
      check_result f ~seed r;
      r)
    parts

let same_reports f ~what a b =
  List.iter2
    (fun (x : Batch.result) (y : Batch.result) ->
      if not (String.equal x.Batch.line y.Batch.line) then
        fail f "%s: %s" x.Batch.part.Batch.name what)
    a b

let pass_run rs = sum_by (fun (r : Batch.result) -> r.Batch.run_s) rs

(* A batch workload's "job" is one simulated round: a round is what a
   caller of the engine waits for, and a run yields thousands of them,
   spread over the whole window. *)
let batch_untraced out f ~parts ~seed ~seconds =
  let probe = Probe.create ~traced:false in
  (* Setup alone, several times: it is short next to a pass and
     noisier, so its median takes more samples.  These also warm the
     heap before the first timed pass. *)
  let t0 = now_s () in
  let setups = ref [] in
  while
    List.length !setups < 3
    || (List.length !setups < 30 && now_s () -. t0 < 1.0)
  do
    setups := sum (List.map (Batch.setup_only probe) parts) :: !setups
  done;
  let start = now_s () in
  (* Passes until the next one would end past [seconds], but at least
     two, so that every run checks that passes repeat. *)
  let rec passes acc =
    let again =
      match acc with
      | [] | [ _ ] -> true
      | done_ ->
          let elapsed = now_s () -. start in
          elapsed +. (elapsed /. float_of_int (List.length done_)) <= seconds
    in
    if again then passes (run_pass f ~seed probe parts :: acc) else List.rev acc
  in
  let passes = passes [] in
  (match passes with
  | first :: rest ->
      List.iter (same_reports f ~what:"report changed between passes" first) rest
  | [] -> ());
  let rounds rs =
    List.fold_left (fun a (r : Batch.result) -> a + r.Batch.report.Obs.Report.rounds) 0 rs
  in
  let per_round rs =
    sum_by (fun (r : Batch.result) -> r.Batch.layers.Probe.words_after_setup) rs
    /. float_of_int (rounds rs)
  in
  let first = List.hd passes in
  let msgs =
    List.fold_left (fun a (r : Batch.result) -> a + r.Batch.report.Obs.Report.messages) 0 first
  and tokens = List.fold_left (fun a (r : Batch.result) -> a + r.Batch.part.Batch.k) 0 first in
  let setup_samples =
    !setups @ List.map (sum_by (fun (r : Batch.result) -> r.Batch.setup_s)) passes
  (* The first result a pass hands back: its first part's report.  The
     time to the end of the first round is shorter than a millisecond
     on unicast-churn, and its run-to-run spread was twice as wide. *)
  and first_report_samples =
    List.map
      (fun rs ->
        let r = List.hd rs in
        r.Batch.setup_s +. r.Batch.run_s +. r.Batch.report_s)
      passes
  in
  (* Round-time quantiles are taken per pass, and the median of them
     reported, so that a few seconds of a slow host move one pass's
     figure and not the run's. *)
  let round_s rs =
    List.concat_map (fun (r : Batch.result) -> Array.to_list r.Batch.round_s) rs
  in
  let per_pass q =
    Result_line.median
      (List.map (fun rs -> Result_line.quantile q (round_s rs)) passes)
  in
  let set = Result_line.set out in
  set "setup_s" (Result_line.median setup_samples);
  set "run_s" (Result_line.median (List.map pass_run passes));
  set "peak_rss_mb" (Serve_mix.vm_hwm_mb "self");
  set "alloc_words_per_round" (Result_line.median (List.map per_round passes));
  set "msgs_per_token" (float_of_int msgs /. float_of_int tokens);
  set "jobs_per_s"
    (Result_line.median
       (List.map (fun rs -> float_of_int (rounds rs) /. pass_run rs) passes));
  set "job_p50_s" (per_pass 0.5);
  set "job_p95_s" (per_pass 0.95);
  set "first_event_p50_s" (Result_line.median first_report_samples);
  Result_line.note out "samples: %d setups, %d passes, %d rounds per pass"
    (List.length setup_samples) (List.length passes) (rounds first);
  List.iteri
    (fun i (p : Batch.part) ->
      let mine = List.map (fun rs -> List.nth rs i) passes in
      Result_line.note out "part %s: %d rounds, run %.3f s (median of passes)"
        p.Batch.name
        (List.hd mine).Batch.report.Obs.Report.rounds
        (Result_line.median (List.map (fun (r : Batch.result) -> r.Batch.run_s) mine)))
    parts

let batch_traced out f ~parts ~seed =
  let plain = run_pass f ~seed (Probe.create ~traced:false) parts in
  let traced = run_pass f ~seed (Probe.create ~traced:true) parts in
  same_reports f ~what:"traced report differs from untraced" plain traced;
  let set = Result_line.set out in
  List.iter
    (fun (r : Batch.result) ->
      let l = r.Batch.layers in
      let p = r.Batch.part.Batch.name in
      let put m v = set (p ^ "." ^ m) v in
      put "adversary.busy_s" l.Probe.adversary.Probe.seconds;
      put "adversary.calls" (float_of_int l.Probe.adversary.Probe.calls);
      put "adversary.alloc_mw" l.Probe.adversary.Probe.mwords;
      put "gossip.send_s" l.Probe.send.Probe.seconds;
      put "gossip.send_calls" (float_of_int l.Probe.send.Probe.calls);
      put "gossip.send_alloc_mw" l.Probe.send.Probe.mwords;
      put "gossip.receive_s" l.Probe.receive.Probe.seconds;
      put "gossip.receive_alloc_mw" l.Probe.receive.Probe.mwords;
      put "gossip.intent_s" l.Probe.intent.Probe.seconds;
      put "engine.self_s" l.Probe.engine_self_s;
      put "engine.alloc_mw" l.Probe.engine_mwords;
      put "engine.setup_s" l.Probe.setup_s;
      put "engine.rounds" (float_of_int l.Probe.rounds);
      if r.Batch.part.Batch.shards > 1 then
        put "engine.cpu_util"
          (l.Probe.cpu_after_setup_s
          /. (r.Batch.run_s *. float_of_int r.Batch.part.Batch.shards)))
    traced;
  set "scenario.prepare_s" (sum_by (fun (r : Batch.result) -> r.Batch.prepare_s) traced);
  set "obs.report_s" (sum_by (fun (r : Batch.result) -> r.Batch.report_s) traced);
  set "obs.report_bytes"
    (sum_by (fun (r : Batch.result) -> float_of_int (String.length r.Batch.line)) traced);
  set "trace.overhead_frac" ((pass_run traced /. pass_run plain) -. 1.)

(* {2 serve-mix} *)

type reference = { line : string; report : Obs.Report.t; k : int; words : float }

let serve_reference ~jobs =
  let refs = Hashtbl.create Serve_mix.cycle in
  let prepare_s = ref 0. and report_s = ref 0. in
  for j = 0 to Serve_mix.cycle - 1 do
    let job = jobs j in
    if not (Hashtbl.mem refs job.Serve_mix.key) then begin
      let t0 = now_s () in
      let spec, prepared = Batch.prepare job.Serve_mix.spec in
      let t1 = now_s () in
      let w0 = Clock.alloc_words () in
      let report =
        Scenario.Runner.run_repeat prepared ~seed:spec.Scenario.Spec.seed
      in
      let words = Clock.alloc_words () -. w0 in
      let t2 = now_s () in
      let line = Obs.Json.to_string (Obs.Report.to_json report) in
      report_s := !report_s +. (now_s () -. t2);
      prepare_s := !prepare_s +. (t1 -. t0);
      Hashtbl.replace refs job.Serve_mix.key
        { line; report; k = spec.Scenario.Spec.k; words }
    end
  done;
  (refs, !prepare_s, !report_s)

let check_window f refs (w : Serve_mix.window) =
  List.iter
    (fun (j : Serve_mix.finished) ->
      f.attempted <- f.attempted + 1;
      match (j.Serve_mix.outcome, j.Serve_mix.reports) with
      | "completed", [ line ] -> (
          match Hashtbl.find_opt refs j.Serve_mix.job.Serve_mix.key with
          | Some r when String.equal r.line line -> ()
          | Some _ ->
              fail f "serve report differs from the in-process run of %s"
                j.Serve_mix.job.Serve_mix.key
          | None -> fail f "no reference for %s" j.Serve_mix.job.Serve_mix.key)
      | outcome, reports ->
          fail f "serve job %s ended %s with %d reports"
            j.Serve_mix.job.Serve_mix.key outcome (List.length reports))
    w.Serve_mix.finished

let window_s (w : Serve_mix.window) =
  Clock.seconds (w.Serve_mix.end_ns - w.Serve_mix.start_ns)

(* The window cut into passes of the job pool: every [Serve_mix.cycle]
   consecutive submissions are one shuffled copy of the pool.  A pass
   lasts from the last [done] of the pass before (or the window's start)
   to its own last [done], so the passes tile the window; a trailing
   partial pass is dropped. *)
let pool_passes (w : Serve_mix.window) =
  let jobs = Array.of_list w.Serve_mix.finished in
  Array.sort
    (fun (a : Serve_mix.finished) (b : Serve_mix.finished) ->
      Int.compare a.Serve_mix.submit_ns b.Serve_mix.submit_ns)
    jobs;
  let n = Serve_mix.cycle in
  let rec go i start acc =
    if (i + 1) * n > Array.length jobs then List.rev acc
    else
      let pass = Array.to_list (Array.sub jobs (i * n) n) in
      let end_ns =
        List.fold_left (fun a (j : Serve_mix.finished) -> max a j.Serve_mix.done_ns) start pass
      in
      go (i + 1) end_ns ((Clock.seconds (end_ns - start), pass) :: acc)
  in
  go 0 w.Serve_mix.start_ns []

(* Median wall time per pass of the job pool. *)
let pool_pass_s w =
  match pool_passes w with
  | [] -> failwith "serve-mix: the window did not complete one pass of the job pool"
  | ps -> Result_line.median (List.map fst ps)

let serve_workload out f ~exe ~work_dir ~seed ~seconds ~trace =
  let socket = Filename.concat work_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let jobs = Serve_mix.job_source ~seed in
  let next = ref 0 in
  let setups = ref [] in
  (* Startup takes milliseconds and jitters by as much, so it is timed
     eleven times: ten starts that only time setup, and the one that
     serves the window. *)
  for _ = 1 to 10 do
    let d, c, s = Serve_mix.start ~exe ~socket in
    setups := s :: !setups;
    Serve_mix.stop d c
  done;
  let d, c1, s = Serve_mix.start ~exe ~socket in
  setups := s :: !setups;
  let c2 = Serve_mix.connect d in
  let loop ~seconds ~min_jobs ~traced =
    let b0 = Serve_mix.scrape_busy d in
    let w =
      Serve_mix.closed_loop ~jobs ~next ~seconds ~min_jobs ~traced [ c1; c2 ]
    in
    (w, Serve_mix.scrape_busy d -. b0)
  in
  (* The traced run splits the window: untraced first, for the tracing
     overhead, then traced, for the per-layer figures. *)
  let windows, busy =
    if trace then
      let half = seconds /. 2. and min_jobs = Serve_mix.cycle in
      let plain, _ = loop ~seconds:half ~min_jobs ~traced:false in
      let traced, busy = loop ~seconds:half ~min_jobs ~traced:true in
      ([ plain; traced ], busy)
    else
      let w, busy = loop ~seconds ~min_jobs:(4 * Serve_mix.cycle) ~traced:false in
      ([ w ], busy)
  in
  let rss = Serve_mix.vm_hwm_mb (string_of_int d.Serve_mix.pid) in
  Serve_mix.close c2;
  Serve_mix.stop d c1;
  let refs, prepare_s, report_s = serve_reference ~jobs in
  List.iter
    (fun (w : Serve_mix.window) ->
      check_window f refs w;
      if w.Serve_mix.rejected > 0 then
        fail f "serve rejected %d submissions" w.Serve_mix.rejected)
    windows;
  let set = Result_line.set out in
  let w = List.nth windows (List.length windows - 1) in
  let finished = w.Serve_mix.finished in
  let lat_in jobs a b =
    List.filter_map
      (fun (j : Serve_mix.finished) ->
        let x = a j and y = b j in
        if x = 0 || y = 0 then None else Some (Clock.seconds (y - x)))
      jobs
  in
  let lat = lat_in finished in
  let submit (j : Serve_mix.finished) = j.Serve_mix.submit_ns in
  let first_event (j : Serve_mix.finished) = j.Serve_mix.first_event_ns in
  let n_jobs = float_of_int (List.length finished) in
  if not trace then begin
    let passes = List.map snd (pool_passes w) in
    (* Latency quantiles per group of jobs, then their median over
       groups: a few slow seconds of the host move one group, not the
       figure.  The median is taken per pass; p95 per block of four
       passes, so that 256 jobs leave at least ten beyond it. *)
    let rec blocks = function
      | a :: b :: c :: d :: rest -> List.concat [ a; b; c; d ] :: blocks rest
      | _ -> []
    in
    let median_over groups q a b =
      Result_line.median
        (List.map (fun g -> Result_line.quantile q (lat_in g a b)) groups)
    in
    let done_at (j : Serve_mix.finished) = j.Serve_mix.done_ns in
    let done_ = lat submit done_at in
    let firsts = lat submit first_event in
    let rs = Hashtbl.fold (fun _ r acc -> r :: acc) refs [] in
    let run_s = pool_pass_s w in
    set "setup_s" (Result_line.median !setups);
    set "run_s" run_s;
    set "peak_rss_mb" rss;
    set "alloc_words_per_round"
      (sum_by (fun r -> r.words) rs
      /. float_of_int (List.fold_left (fun a r -> a + r.report.Obs.Report.rounds) 0 rs));
    set "msgs_per_token"
      (float_of_int (List.fold_left (fun a r -> a + r.report.Obs.Report.messages) 0 rs)
      /. float_of_int (List.fold_left (fun a r -> a + r.k) 0 rs));
    set "jobs_per_s" (float_of_int Serve_mix.cycle /. run_s);
    set "job_p50_s" (median_over passes 0.5 submit done_at);
    set "job_p95_s" (median_over (blocks passes) 0.95 submit done_at);
    set "first_event_p50_s" (median_over passes 0.5 submit first_event);
    Result_line.note out
      "samples: %d daemon starts, %d jobs in %d passes of %d, p95 over %d \
       block(s) of 4 passes, %d with events"
      (List.length !setups) (List.length done_) (List.length passes)
      Serve_mix.cycle
      (List.length (blocks passes))
      (List.length firsts);
    Result_line.note out "placement: %s"
      (match Lazy.force Serve_mix.placement with
      | Some (daemon, client) ->
          Printf.sprintf "daemon on CPU %d, client on CPU %d" daemon client
      | None -> "one CPU, not pinned")
  end
  else begin
    let plain = List.hd windows in
    let accepted (j : Serve_mix.finished) = j.Serve_mix.accept_ns in
    set "serve.accept_p50_s" (Result_line.median (lat submit accepted));
    set "serve.queue_wait_p50_s" (Result_line.median (lat accepted first_event));
    set "serve.worker_busy_s" busy;
    set "serve.worker_util" (busy /. window_s w);
    set "serve.frames_per_job"
      (sum_by (fun (j : Serve_mix.finished) -> float_of_int j.Serve_mix.frames) finished
      /. n_jobs);
    set "serve.event_bytes_per_job"
      (sum_by (fun (j : Serve_mix.finished) -> float_of_int j.Serve_mix.event_bytes) finished
      /. n_jobs);
    set "serve.rejected" (float_of_int w.Serve_mix.rejected);
    set "rpc.decode_s" (Clock.seconds w.Serve_mix.decode.Serve_mix.ns);
    set "rpc.decode_calls" (float_of_int w.Serve_mix.decode.Serve_mix.calls);
    set "scenario.prepare_s" prepare_s;
    set "obs.report_s" report_s;
    set "obs.report_bytes"
      (float_of_int (Hashtbl.fold (fun _ r a -> a + String.length r.line) refs 0));
    set "trace.overhead_frac" ((pool_pass_s w /. pool_pass_s plain) -. 1.)
  end

(* {2 Command line} *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload unicast-churn|flood-100k|serve-mix --seed N \
     --seconds S --trace 0|1 [--dynspread EXE] [--work-dir DIR] [--benchmark FILE]";
  exit 2

let () =
  let opts = Hashtbl.create 8 in
  let rec parse = function
    | [] -> ()
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        Hashtbl.replace opts (String.sub k 2 (String.length k - 2)) v;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt opts k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let opt k ~default = Option.value (Hashtbl.find_opt opts k) ~default in
  let workload = get "workload" and seed = int "seed" and seconds = int "seconds" in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  if seconds < 1 then usage ();
  let seconds = float_of_int seconds in
  (* A signal still reaps the daemon: [exit] runs the at_exit hooks. *)
  let on_signal = Sys.Signal_handle (fun _ -> exit 3) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let out = Result_line.create () in
  let f = { attempted = 0; failed = [] } in
  match
    Result_line.check_catalogue (opt "benchmark" ~default:"BENCHMARK.json");
    match workload with
    | "unicast-churn" | "flood-100k" ->
        let parts =
          if String.equal workload "unicast-churn" then Batch.unicast_churn ~seed
          else Batch.flood_100k ~seed
        in
        if trace then batch_traced out f ~parts ~seed
        else batch_untraced out f ~parts ~seed ~seconds
    | "serve-mix" ->
        serve_workload out f
          ~exe:(opt "dynspread" ~default:"_build/default/bin/dynspread_cli.exe")
          ~work_dir:(opt "work-dir" ~default:".")
          ~seed ~seconds ~trace
    | _ -> usage ()
  with
  | () ->
      List.iter (fun m -> prerr_endline ("perfbench: FAILED " ^ m)) (List.rev f.failed);
      let failed = min (List.length f.failed) (max 1 f.attempted) in
      Result_line.print out ~trace ~attempted:(max 1 f.attempted) ~failed;
      exit (if failed = 0 then 0 else 1)
  | exception (Failure msg | Sys_error msg) ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2
  | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "perfbench: %s(%s): %s\n" fn arg (Unix.error_message e);
      exit 2
