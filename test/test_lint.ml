(* dynlint itself: one positive and one negative fixture per rule,
   waiver parsing in all its accepted shapes, the domain-safety audit
   on a fixture tree with an injected racy ref, and the regression that
   the shipped tree is violation-free (the same scan `dune build @lint`
   gates on). *)

open Lintcore

let check = Alcotest.check
let rules vs = List.map (fun (v : Rules.violation) -> v.Rules.rule) vs

let lint ~id content = rules (Driver.lint_source ~id content)

(* {2 Per-file rules on fixture snippets} *)

let test_poly_compare () =
  check
    Alcotest.(list string)
    "bare = in a strict lib" [ "poly-compare" ]
    (lint ~id:"lib/dynet/fixture.ml" "let f a b = a = b\n");
  check
    Alcotest.(list string)
    "open Ops satisfies the discipline" []
    (lint ~id:"lib/dynet/fixture.ml" "open Ops\n\nlet f a b = a = b\n");
  check
    Alcotest.(list string)
    "open Dynet.Ops satisfies it outside dynet" []
    (lint ~id:"lib/gossip/fixture.ml" "open Dynet.Ops\n\nlet f a b = a <> b\n");
  check
    Alcotest.(list string)
    "Stdlib.( = ) reaches around the shadow" [ "poly-compare" ]
    (lint ~id:"lib/engine/fixture.ml"
       "open Dynet.Ops\n\nlet f a b = Stdlib.( = ) a b\n");
  check
    Alcotest.(list string)
    "Hashtbl.hash is polymorphic too" [ "poly-compare" ]
    (lint ~id:"lib/dynet/fixture.ml" "open Ops\n\nlet h x = Hashtbl.hash x\n");
  check
    Alcotest.(list string)
    "non-strict libraries may compare freely" []
    (lint ~id:"lib/obs/fixture.ml" "let f a b = compare a b\n")

let test_physical_eq () =
  check
    Alcotest.(list string)
    "== outside the allowlist" [ "physical-eq" ]
    (lint ~id:"lib/obs/fixture.ml" "let f a b = a == b\n");
  check
    Alcotest.(list string)
    "!= too" [ "physical-eq" ]
    (lint ~id:"test/fixture.ml" "let f a b = a != b\n");
  check
    Alcotest.(list string)
    "Stability's reuse check is allowlisted" []
    (lint ~id:"lib/dynet/stability.ml" "open Ops\n\nlet f a b = a == b\n")

let test_obj_magic () =
  check
    Alcotest.(list string)
    "Obj.magic is never fine" [ "obj-magic" ]
    (lint ~id:"lib/obs/fixture.ml" "let f x = Obj.magic x\n");
  check
    Alcotest.(list string)
    "Obj.repr is not flagged" []
    (lint ~id:"lib/obs/fixture.ml" "let f x = Obj.repr x\n")

let test_catch_all_try () =
  check
    Alcotest.(list string)
    "try ... with _ ->" [ "catch-all-try" ]
    (lint ~id:"lib/obs/fixture.ml" "let f g = try g () with _ -> 0\n");
  check
    Alcotest.(list string)
    "matching a specific exception is fine" []
    (lint ~id:"lib/obs/fixture.ml" "let f g = try g () with Not_found -> 0\n")

let test_direct_print () =
  check
    Alcotest.(list string)
    "print_endline in a library" [ "direct-print" ]
    (lint ~id:"lib/analysis/fixture.ml" "let f () = print_endline \"x\"\n");
  check
    Alcotest.(list string)
    "Printf.printf in a library" [ "direct-print" ]
    (lint ~id:"lib/gossip/fixture.ml"
       "open Dynet.Ops\n\nlet f n = Printf.printf \"%d\" n\n");
  check
    Alcotest.(list string)
    "executables route output through Obs.Console" [ "direct-print" ]
    (lint ~id:"bin/fixture.ml" "let f () = print_endline \"x\"\n");
  check
    Alcotest.(list string)
    "lib/obs is the output layer" []
    (lint ~id:"lib/obs/fixture.ml" "let f () = prerr_endline \"x\"\n")

let test_syntax_error () =
  check
    Alcotest.(list string)
    "unparsable file" [ "syntax" ]
    (lint ~id:"lib/obs/fixture.ml" "let f = (\n")

(* {2 Waivers} *)

let test_waiver_applies () =
  List.iter
    (fun dash ->
      check
        Alcotest.(list string)
        (Printf.sprintf "waiver with %S dash" dash)
        []
        (lint ~id:"lib/obs/fixture.ml"
           (Printf.sprintf
              "(* dynlint: allow physical-eq %s caches share structure *)\n\
               let f a b = a == b\n"
              dash)))
    [ "\xe2\x80\x94"; "--"; "-" ]

let test_waiver_same_line () =
  check
    Alcotest.(list string)
    "waiver on the flagged line" []
    (lint ~id:"lib/obs/fixture.ml"
       "let f a b = a == b (* dynlint: allow physical-eq -- identity test *)\n")

let test_waiver_wrong_rule () =
  check
    Alcotest.(list string)
    "waiver for another rule does not apply, and is stale"
    [ "physical-eq"; "stale-waiver" ]
    (lint ~id:"lib/obs/fixture.ml"
       "(* dynlint: allow obj-magic -- wrong rule *)\nlet f a b = a == b\n")

let test_waiver_out_of_range () =
  check
    Alcotest.(list string)
    "waiver two lines above does not reach"
    [ "physical-eq"; "stale-waiver" ]
    (lint ~id:"lib/obs/fixture.ml"
       "(* dynlint: allow physical-eq -- too far up *)\n\n\
        let f a b = a == b\n")

let test_stale_waiver () =
  check
    Alcotest.(list string)
    "allow waiver matching nothing" [ "stale-waiver" ]
    (lint ~id:"lib/obs/fixture.ml"
       "(* dynlint: allow physical-eq -- nothing here *)\nlet f x = x\n")

let test_bad_waivers () =
  check
    Alcotest.(list string)
    "unknown rule name" [ "bad-waiver" ]
    (lint ~id:"lib/obs/fixture.ml"
       "(* dynlint: allow no-such-rule -- hm *)\nlet f x = x\n");
  check
    Alcotest.(list string)
    "missing reason" [ "bad-waiver" ]
    (lint ~id:"lib/obs/fixture.ml"
       "(* dynlint: allow physical-eq *)\nlet f x = x\n");
  check
    Alcotest.(list string)
    "empty reason" [ "bad-waiver" ]
    (lint ~id:"lib/obs/fixture.ml"
       "(* dynlint: allow physical-eq -- *)\nlet f x = x\n");
  check
    Alcotest.(list string)
    "not a waiver form at all" [ "bad-waiver" ]
    (lint ~id:"lib/obs/fixture.ml"
       "(* dynlint: please ignore this file *)\nlet f x = x\n");
  check
    Alcotest.(list string)
    "ordinary comments are not waivers" []
    (lint ~id:"lib/obs/fixture.ml" "(* a comment about dynlint *)\nlet f x = x\n")

(* {2 Callgraph rules: hot-alloc, unsafe-index, shard-ownership}

   Each rule gets the same trio: a caught violation, a valid waiver
   (claimed, silent), and a stale waiver (unclaimed, reported). *)

let test_hot_alloc () =
  check
    Alcotest.(list string)
    "allocation directly in a hot function" [ "hot-alloc" ]
    (lint ~id:"lib/dynet/fixture.ml" "let hot x = (x, x) [@@dynlint.hot]\n");
  check
    Alcotest.(list string)
    "allocation reached transitively" [ "hot-alloc" ]
    (lint ~id:"lib/dynet/fixture.ml"
       "let box x = Some x\nlet hot x = box x [@@dynlint.hot]\n");
  check
    Alcotest.(list string)
    "allocation-free hot path passes" []
    (lint ~id:"lib/dynet/fixture.ml"
       "let add x y = x + y\nlet hot x = add x 1 [@@dynlint.hot]\n");
  check
    Alcotest.(list string)
    "allocation off every hot path passes" []
    (lint ~id:"lib/dynet/fixture.ml"
       "let box x = Some x\nlet hot x = x + 1 [@@dynlint.hot]\nlet g = box\n")

let test_hot_alloc_waivers () =
  check
    Alcotest.(list string)
    "alloc_ok cuts the hot path and is claimed" []
    (lint ~id:"lib/dynet/fixture.ml"
       "let box x = Some x [@@dynlint.alloc_ok \"boxed by design\"]\n\
        let hot x = box x [@@dynlint.hot]\n");
  check
    Alcotest.(list string)
    "alloc_ok off every hot path is stale" [ "stale-waiver" ]
    (lint ~id:"lib/dynet/fixture.ml"
       "let box x = Some x [@@dynlint.alloc_ok \"never on a hot path\"]\n\
        let hot x = x + 1 [@@dynlint.hot]\n")

let test_unsafe_index () =
  check
    Alcotest.(list string)
    "unguarded unsafe_get in the audited scope" [ "unsafe-index" ]
    (lint ~id:"lib/dynet/fixture.ml" "let f a i = Array.unsafe_get a i\n");
  check
    Alcotest.(list string)
    "for-loop counter is a visible guard" []
    (lint ~id:"lib/dynet/fixture.ml"
       "let sum a =\n\
       \  let s = ref 0 in\n\
       \  for i = 0 to Array.length a - 1 do\n\
       \    s := !s + Array.unsafe_get a i\n\
       \  done;\n\
       \  !s\n");
  check
    Alcotest.(list string)
    "if-comparison is a visible guard" []
    (lint ~id:"lib/dynet/fixture.ml"
       "open Ops\n\n\
        let get a i = if i < Array.length a then Array.unsafe_get a i else 0\n");
  check
    Alcotest.(list string)
    "outside the audited scope" []
    (lint ~id:"lib/obs/fixture.ml" "let f a i = Array.unsafe_get a i\n")

let test_unsafe_index_waivers () =
  check
    Alcotest.(list string)
    "unsafe_ok waives the site" []
    (lint ~id:"lib/dynet/fixture.ml"
       "let f a i = Array.unsafe_get a i\n\
       \  [@@dynlint.unsafe_ok \"caller contract: i is in bounds\"]\n");
  check
    Alcotest.(list string)
    "unsafe_ok with nothing to waive is stale" [ "stale-waiver" ]
    (lint ~id:"lib/dynet/fixture.ml"
       "let f a i = a.(i) [@@dynlint.unsafe_ok \"plain checked access\"]\n")

let test_shard_ownership () =
  check
    Alcotest.(list string)
    "write outside the span" [ "shard-ownership" ]
    (lint ~id:"lib/engine/fixture.ml"
       "let go pool (out : int array) =\n\
       \  Engine.Shard_pool.run pool (fun ~shard:_ ~lo:_ ~hi:_ -> out.(0) <- 1)\n");
  check
    Alcotest.(list string)
    "span-indexed writes are owned" []
    (lint ~id:"lib/engine/fixture.ml"
       "let go pool (out : int array) =\n\
       \  Engine.Shard_pool.run pool (fun ~shard:_ ~lo ~hi ->\n\
       \      for i = lo to hi - 1 do\n\
       \        out.(i) <- 0\n\
       \      done)\n");
  check
    Alcotest.(list string)
    "job-local state is owned" []
    (lint ~id:"lib/engine/fixture.ml"
       "let go pool =\n\
       \  Engine.Shard_pool.run pool (fun ~shard:_ ~lo ~hi ->\n\
       \      let acc = ref 0 in\n\
       \      for i = lo to hi - 1 do\n\
       \        acc := !acc + i\n\
       \      done;\n\
       \      ignore !acc)\n")

let test_shard_ownership_waivers () =
  check
    Alcotest.(list string)
    "comment waiver silences the write" []
    (lint ~id:"lib/engine/fixture.ml"
       "let go pool (out : int array) =\n\
       \  Engine.Shard_pool.run pool (fun ~shard:_ ~lo:_ ~hi:_ ->\n\
       \      (* dynlint: allow shard-ownership -- single writer by contract *)\n\
       \      out.(0) <- 1)\n");
  check
    Alcotest.(list string)
    "unused shard-ownership waiver is stale" [ "stale-waiver" ]
    (lint ~id:"lib/engine/fixture.ml"
       "let go pool (out : int array) =\n\
       \  Engine.Shard_pool.run pool (fun ~shard:_ ~lo ~hi ->\n\
       \      (* dynlint: allow shard-ownership -- nothing to waive *)\n\
       \      for i = lo to hi - 1 do\n\
       \        out.(i) <- 0\n\
       \      done)\n")

(* {2 Fixture trees: missing-mli and the domain-safety audit} *)

let with_fixture_tree files f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ()) "dynlint_fixture"
  in
  let lib = Filename.concat root "lib" in
  if Sys.file_exists lib then
    Array.iter
      (fun e -> Sys.remove (Filename.concat lib e))
      (Sys.readdir lib)
  else begin
    if not (Sys.file_exists root) then Sys.mkdir root 0o755;
    Sys.mkdir lib 0o755
  end;
  List.iter
    (fun (name, content) ->
      let oc = open_out (Filename.concat lib name) in
      output_string oc content;
      close_out oc)
    files;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat lib e))
        (Sys.readdir lib);
      Sys.rmdir lib;
      Sys.rmdir root)
    (fun () -> f lib)

let test_missing_mli () =
  with_fixture_tree
    [ ("bare.ml", "let x = 1\n"); ("good.ml", "let x = 1\n");
      ("good.mli", "val x : int\n") ]
    (fun lib ->
      let report = Driver.run [ lib ] in
      check
        Alcotest.(list (pair string string))
        "only the interface-less module is flagged"
        [ ("lib/bare.ml", "missing-mli") ]
        (List.map
           (fun (v : Rules.violation) -> (v.Rules.id, v.Rules.rule))
           report.Driver.violations))

(* The audit scenario from the issue: a top-level ref in a module
   reachable from a Sweep.map worker closure must be flagged; the same
   state in an unreachable module must not; a domain-safe waiver
   silences it. *)
let domain_fixture ~waived =
  [
    ( "sweepuser.ml",
      "let go xs = Analysis.Sweep.map (fun x -> Helper.calc x) xs\n" );
    ("sweepuser.mli", "val go : int list -> int list\n");
    ( "helper.ml",
      if waived then
        "(* dynlint: domain-safe -- written once before any spawn *)\n\
         let cache = ref 0\n\n\
         let calc x = x + !cache\n"
      else "let cache = ref 0\n\nlet calc x = x + !cache\n" );
    ("helper.mli", "val cache : int ref\n\nval calc : int -> int\n");
    (* Same shape, but nothing reaches it from a Sweep call site. *)
    ("loner.ml", "let cache = ref 0\n\nlet calc x = x + !cache\n");
    ("loner.mli", "val cache : int ref\n\nval calc : int -> int\n");
  ]

let test_domain_safety_flags_reachable_ref () =
  with_fixture_tree (domain_fixture ~waived:false) (fun lib ->
      let report = Driver.run [ lib ] in
      check
        Alcotest.(list (pair string string))
        "the reachable ref is the one violation"
        [ ("lib/helper.ml", "domain-safety") ]
        (List.map
           (fun (v : Rules.violation) -> (v.Rules.id, v.Rules.rule))
           report.Driver.violations);
      check Alcotest.bool "root is in the reachable set" true
        (List.mem "lib/sweepuser.ml" report.Driver.sweep_reachable);
      check Alcotest.bool "helper is in the reachable set" true
        (List.mem "lib/helper.ml" report.Driver.sweep_reachable);
      check Alcotest.bool "loner is not" false
        (List.mem "lib/loner.ml" report.Driver.sweep_reachable))

let test_domain_safety_waiver () =
  with_fixture_tree (domain_fixture ~waived:true) (fun lib ->
      let report = Driver.run [ lib ] in
      check
        Alcotest.(list string)
        "domain-safe waiver silences the audit" [] (rules report.Driver.violations))

let test_domain_safety_mutable_kinds () =
  (* Each classic shared-state shape is caught at top level but
     tolerated under a [fun]. *)
  List.iter
    (fun (label, toplevel, delayed) ->
      with_fixture_tree
        [
          ( "sweepuser.ml",
            "let go xs = Analysis.Sweep.map (fun x -> Helper.calc x) xs\n" );
          ("sweepuser.mli", "val go : int list -> int list\n");
          ("helper.ml", toplevel);
          ("helper.mli", "val calc : int -> int\n");
        ]
        (fun lib ->
          check
            Alcotest.(list string)
            (label ^ " at top level") [ "domain-safety" ]
            (rules (Driver.run [ lib ]).Driver.violations));
      with_fixture_tree
        [
          ( "sweepuser.ml",
            "let go xs = Analysis.Sweep.map (fun x -> Helper.calc x) xs\n" );
          ("sweepuser.mli", "val go : int list -> int list\n");
          ("helper.ml", delayed);
          ("helper.mli", "val calc : int -> int\n");
        ]
        (fun lib ->
          check
            Alcotest.(list string)
            (label ^ " under a fun") []
            (rules (Driver.run [ lib ]).Driver.violations)))
    [
      ( "Hashtbl.create",
        "let t = Hashtbl.create 8\n\nlet calc x = Hashtbl.hash t + x\n",
        "let calc x =\n  let t = Hashtbl.create 8 in\n  Hashtbl.length t + x\n"
      );
      ( "lazy",
        "let v = lazy 1\n\nlet calc x = x + Lazy.force v\n",
        "let calc x =\n  let v = lazy 1 in\n  x + Lazy.force v\n" );
      ( "array literal",
        "let a = [| 0 |]\n\nlet calc x = x + a.(0)\n",
        "let calc x =\n  let a = [| 0 |] in\n  x + a.(0)\n" );
      (* Observability state is single-domain by contract: a profiler
         lane or metrics registry shared from the top level races. *)
      ( "Obs.Span.create",
        "let p = Obs.Span.create ()\n\nlet calc x = Obs.Span.span_count p + x\n",
        "let calc x =\n        \  let p = Obs.Span.create () in\n        \  Obs.Span.span_count p + x\n" );
      ( "Obs.Metrics.create",
        "let m = Obs.Metrics.create ()\n\n         let calc x = Obs.Metrics.counter m \"c\" + x\n",
        "let calc x =\n        \  let m = Obs.Metrics.create () in\n        \  Obs.Metrics.counter m \"c\" + x\n" );
    ];
  (* Atomic is the sanctioned shared primitive: a top-level Atomic.t
     passes the audit without a waiver. *)
  with_fixture_tree
    [
      ( "sweepuser.ml",
        "let go xs = Analysis.Sweep.map (fun x -> Helper.calc x) xs\n" );
      ("sweepuser.mli", "val go : int list -> int list\n");
      ("helper.ml", "let a = Atomic.make 0\n\nlet calc x = x + Atomic.get a\n");
      ("helper.mli", "val a : int Atomic.t\n\nval calc : int -> int\n");
    ]
    (fun lib ->
      check
        Alcotest.(list string)
        "top-level Atomic passes" []
        (rules (Driver.run [ lib ]).Driver.violations))

(* [map_span] call sites hold worker closures exactly like [map]'s,
   so they root the reachability walk too. *)
let test_domain_safety_map_span_is_root () =
  with_fixture_tree
    [
      ( "sweepuser.ml",
        "let go xs =\n        \  Analysis.Sweep.map_span ~name:\"t\"\n        \    (fun ~prof:_ x -> Helper.calc x)\n        \    xs\n" );
      ("sweepuser.mli", "val go : int array -> int array\n");
      ("helper.ml", "let cache = ref 0\n\nlet calc x = x + !cache\n");
      ("helper.mli", "val cache : int ref\n\nval calc : int -> int\n");
    ]
    (fun lib ->
      check
        Alcotest.(list string)
        "a map_span call site roots the audit" [ "domain-safety" ]
        (rules (Driver.run [ lib ]).Driver.violations))

(* The SoA engine's shard jobs run on pool domains exactly like Sweep
   point closures, so [Shard_pool.run]/[create]/[with_pool] call sites
   root the reachability walk the same way. *)
let test_domain_safety_shard_pool_is_root () =
  with_fixture_tree
    [
      ( "pooluser.ml",
        "let go spans =\n\
        \  Engine.Shard_pool.with_pool ~spans (fun pool ->\n\
        \      Engine.Shard_pool.run pool (fun ~shard:_ ~lo ~hi ->\n\
        \          ignore (Helper.calc (hi - lo))))\n" );
      ("pooluser.mli", "val go : (int * int) array -> unit\n");
      ("helper.ml", "let cache = ref 0\n\nlet calc x = x + !cache\n");
      ("helper.mli", "val cache : int ref\n\nval calc : int -> int\n");
    ]
    (fun lib ->
      check
        Alcotest.(list string)
        "a Shard_pool call site roots the audit" [ "domain-safety" ]
        (rules (Driver.run [ lib ]).Driver.violations))

(* {2 The committed bad-fixture tree}

   The same seeded violations CI's smoke step greps for: if a dynlint
   change stops catching any of them, this fails before the workflow
   does. *)

let test_bad_fixture_tree () =
  let report = Driver.run [ "../lint/fixtures/bad/lib" ] in
  check
    Alcotest.(list (pair string string))
    "every seeded violation is caught"
    [
      ("lib/dynet/hot_fixture.ml", "hot-alloc");
      ("lib/dynet/hot_fixture.ml", "hot-alloc");
      ("lib/dynet/stale_fixture.ml", "stale-waiver");
      ("lib/dynet/stale_fixture.ml", "stale-waiver");
      ("lib/dynet/unsafe_fixture.ml", "unsafe-index");
      ("lib/engine/shard_fixture.ml", "shard-ownership");
    ]
    (List.sort compare
       (List.map
          (fun (v : Rules.violation) -> (v.Rules.id, v.Rules.rule))
          report.Driver.violations))

(* {2 Regression: the shipped tree is violation-free} *)

let test_shipped_tree_clean () =
  let report = Driver.run [ "../lib"; "../bin"; "../bench"; "../test" ] in
  check
    Alcotest.(list string)
    "dynlint on the shipped tree" []
    (List.map
       (fun (v : Rules.violation) ->
         Format.asprintf "%a" Driver.pp_violation v)
       report.Driver.violations);
  check Alcotest.bool "scanned a real number of files" true
    (report.Driver.files_scanned > 100);
  (* The callgraph pass must actually see the annotated kernel: hot
     roots across Plane/Csr/Bitset/Soa, the audited unsafe_* sites
     (every one guarded or waived), and the SoA shard jobs. *)
  let stats = report.Driver.stats in
  check Alcotest.bool "hot roots seeded across the kernel" true
    (stats.Driver.hot_roots >= 20);
  check Alcotest.bool "unsafe sites audited" true
    (stats.Driver.unsafe_sites >= 20);
  check Alcotest.int "every unsafe site is guarded or waived"
    stats.Driver.unsafe_sites
    (stats.Driver.unsafe_guarded + stats.Driver.unsafe_waived);
  check
    Alcotest.(list string)
    "the SoA plane-kernel shard jobs are analyzed"
    [
      "Soa.run_plane.apply_job"; "Soa.run_plane.intent_job";
      "Soa.run_plane.push_job"; "Soa.run_plane.receive_job";
    ]
    (List.sort String.compare stats.Driver.shard_jobs);
  (* The Sweep audit must actually cover the experiment stack. *)
  List.iter
    (fun id ->
      check Alcotest.bool (id ^ " sweep-reachable") true
        (List.mem id report.Driver.sweep_reachable))
    [ "lib/analysis/sweep.ml"; "lib/gossip/single_source.ml";
      "lib/engine/runner_unicast.ml"; "lib/fuzz/campaign.ml";
      "lib/fuzz/diff.ml"; "lib/engine/reference.ml"; "lib/engine/soa.ml";
      "lib/engine/shard_pool.ml"; "lib/dynet/plane.ml"; "lib/dynet/csr.ml" ]

let suite =
  [
    Alcotest.test_case "poly-compare rule" `Quick test_poly_compare;
    Alcotest.test_case "physical-eq rule" `Quick test_physical_eq;
    Alcotest.test_case "obj-magic rule" `Quick test_obj_magic;
    Alcotest.test_case "catch-all-try rule" `Quick test_catch_all_try;
    Alcotest.test_case "direct-print rule" `Quick test_direct_print;
    Alcotest.test_case "syntax errors are violations" `Quick test_syntax_error;
    Alcotest.test_case "waiver dash forms" `Quick test_waiver_applies;
    Alcotest.test_case "waiver on the same line" `Quick test_waiver_same_line;
    Alcotest.test_case "waiver for wrong rule" `Quick test_waiver_wrong_rule;
    Alcotest.test_case "waiver out of range" `Quick test_waiver_out_of_range;
    Alcotest.test_case "stale waiver" `Quick test_stale_waiver;
    Alcotest.test_case "malformed waivers" `Quick test_bad_waivers;
    Alcotest.test_case "hot-alloc rule" `Quick test_hot_alloc;
    Alcotest.test_case "hot-alloc waivers" `Quick test_hot_alloc_waivers;
    Alcotest.test_case "unsafe-index rule" `Quick test_unsafe_index;
    Alcotest.test_case "unsafe-index waivers" `Quick test_unsafe_index_waivers;
    Alcotest.test_case "shard-ownership rule" `Quick test_shard_ownership;
    Alcotest.test_case "shard-ownership waivers" `Quick
      test_shard_ownership_waivers;
    Alcotest.test_case "bad fixture tree trips every rule" `Quick
      test_bad_fixture_tree;
    Alcotest.test_case "missing-mli" `Quick test_missing_mli;
    Alcotest.test_case "domain-safety: reachable ref" `Quick
      test_domain_safety_flags_reachable_ref;
    Alcotest.test_case "domain-safety: waiver" `Quick test_domain_safety_waiver;
    Alcotest.test_case "domain-safety: map_span roots" `Quick
      test_domain_safety_map_span_is_root;
    Alcotest.test_case "domain-safety: shard-pool roots" `Quick
      test_domain_safety_shard_pool_is_root;
    Alcotest.test_case "domain-safety: mutable kinds" `Quick
      test_domain_safety_mutable_kinds;
    Alcotest.test_case "shipped tree is clean" `Quick test_shipped_tree_clean;
  ]
