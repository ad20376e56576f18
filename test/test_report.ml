(* The run-ledger and regression layer: qcheck round-trips for history
   records, ledger append/load, medians, the golden ppreport-diff
   rendering, the regression gate's exact-counter oracle (a counter
   perturbed by 1 must fail, named by section and metric), and the
   atomic JSON + Prometheus export. *)

let prop name ?(count = 100) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* -- generators ----------------------------------------------------------- *)

let ident_gen =
  QCheck.Gen.(
    map
      (fun (c, rest) -> String.make 1 c ^ rest)
      (pair (char_range 'a' 'z')
         (string_size ~gen:(char_range 'a' 'z') (int_bound 8))))

let finite_float_gen = QCheck.Gen.float_range (-1e9) 1e9

let v_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Obs.Metrics.Counter n) (int_range 0 1_000_000);
        map (fun f -> Obs.Metrics.Gauge f) finite_float_gen;
        map
          (fun (counts, sum) ->
            let counts = Array.of_list counts in
            let count = Array.fold_left ( + ) 0 counts in
            Obs.Metrics.Histogram
              { bounds = [| 1.0; 10.0; 100.0 |]; counts; sum; count })
          (pair
             (list_repeat 4 (int_range 0 1000))
             (float_range 0.0 1e9));
      ])

let metrics_gen =
  QCheck.Gen.(
    map
      (fun pairs ->
        (* unique sorted names, as Metrics.snapshot produces *)
        List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) pairs)
      (list_size (int_bound 5) (pair ident_gen v_gen)))

let section_gen =
  QCheck.Gen.(
    map
      (fun (wall_s, metrics) -> { Obs.History.wall_s; metrics })
      (pair (float_range 0.0 1e4) metrics_gen))

let meta_gen =
  QCheck.Gen.(
    map
      (fun ((git_rev, hostname), (ocaml_version, jobs)) ->
        {
          Obs.Run_meta.git_rev;
          hostname;
          ocaml_version;
          jobs;
          timestamp = "2026-08-05T12:00:00Z";
        })
      (pair (pair ident_gen ident_gen) (pair ident_gen (int_range 1 64))))

let run_gen =
  QCheck.Gen.(
    map
      (fun ((meta, sections), timings) ->
        let dedup_by_fst l =
          List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) l
        in
        {
          Obs.History.meta;
          sections = dedup_by_fst sections;
          timings = dedup_by_fst timings;
        })
      (pair
         (pair (option meta_gen) (list_size (int_bound 4) (pair ident_gen section_gen)))
         (list_size (int_bound 3) (pair ident_gen (float_range 0.0 1e9)))))

let run_arb =
  QCheck.make
    ~print:(fun r -> Obs.Json.to_string (Obs.History.run_to_json r))
    run_gen

(* -- history record round-trips ------------------------------------------- *)

let run_roundtrip_prop =
  prop "History.run_of_json inverts run_to_json" ~count:200 run_arb (fun r ->
      Obs.History.run_of_json (Obs.History.run_to_json r) = Ok r)

let run_bytes_stable_prop =
  prop "run JSON re-serialises byte-stably" ~count:200 run_arb (fun r ->
      let s = Obs.Json.to_string (Obs.History.run_to_json r) in
      match Obs.History.parse_run s with
      | Error _ -> false
      | Ok r' -> Obs.Json.to_string (Obs.History.run_to_json r') = s)

let meta_roundtrip_prop =
  prop "Run_meta.of_json inverts to_json" ~count:200 (QCheck.make meta_gen)
    (fun m -> Obs.Run_meta.of_json (Obs.Run_meta.to_json m) = Ok m)

let test_run_meta_collect () =
  let m = Obs.Run_meta.collect ~jobs:3 () in
  Alcotest.(check int) "jobs" 3 m.Obs.Run_meta.jobs;
  Alcotest.(check string) "ocaml version" Sys.ocaml_version
    m.Obs.Run_meta.ocaml_version;
  (* this test runs inside the repo checkout: HEAD must resolve *)
  Alcotest.(check bool) "git rev resolved" true
    (String.length m.Obs.Run_meta.git_rev = 40
     && m.Obs.Run_meta.git_rev <> "unknown");
  Alcotest.(check bool) "timestamp is ISO-8601 UTC" true
    (String.length m.Obs.Run_meta.timestamp = 20
     && m.Obs.Run_meta.timestamp.[19] = 'Z')

(* -- ledger --------------------------------------------------------------- *)

let temp_dir () =
  let path = Filename.temp_file "ppledger" "" in
  Sys.remove path;
  path

let ledger_roundtrip_prop =
  prop "ledger append/load round-trips run lists" ~count:20
    (QCheck.make QCheck.Gen.(list_size (int_range 1 5) run_gen))
    (fun runs ->
      let dir = temp_dir () in
      Fun.protect ~finally:(fun () ->
          (try Sys.remove (Obs.History.ledger_file dir) with Sys_error _ -> ());
          try Unix.rmdir dir with Unix.Unix_error _ -> ())
      @@ fun () ->
      List.iter (fun r -> Obs.History.append ~dir r) runs;
      Obs.History.load_ledger dir = Ok (runs, 0))

(* a crash mid-append leaves a truncated/garbage tail line; the good
   runs around it must stay readable, with the bad lines counted *)
let test_ledger_bad_line () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () ->
      (try Sys.remove (Obs.History.ledger_file dir) with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  let a = { Obs.History.meta = None; sections = []; timings = [] } in
  let b =
    { Obs.History.meta = None; sections = []; timings = [ ("t", 1.0) ] }
  in
  Obs.History.append ~dir a;
  let oc =
    Out_channel.open_gen
      [ Open_append; Open_text ] 0o644 (Obs.History.ledger_file dir)
  in
  (* a valid line truncated mid-object, then plain garbage *)
  Out_channel.output_string oc "{\"schema\": \"ppbench/v2\", \"sect\n";
  Out_channel.output_string oc "not json\n";
  Out_channel.close oc;
  Obs.History.append ~dir b;
  match Obs.History.load_ledger dir with
  | Error e -> Alcotest.fail e
  | Ok (runs, skipped) ->
    Alcotest.(check int) "both good runs survive" 2 (List.length runs);
    Alcotest.(check bool) "order preserved" true (runs = [ a; b ]);
    Alcotest.(check int) "bad lines counted" 2 skipped

let test_ppbench_v1_rejected () =
  match
    Obs.History.parse_run {|{"schema": "ppbench/v1", "sections": [], "timings": []}|}
  with
  | Error e ->
    Alcotest.(check string) "named as an unknown schema"
      {|unknown schema "ppbench/v1"|} e
  | Ok _ -> Alcotest.fail "a ppbench/v1 document must not load"

(* -- medians -------------------------------------------------------------- *)

let section_with ~wall counter =
  {
    Obs.History.wall_s = wall;
    metrics = [ ("core.ops", Obs.Metrics.Counter counter) ];
  }

let run_with ~wall counter =
  {
    Obs.History.meta = None;
    sections = [ ("E1", section_with ~wall counter) ];
    timings = [];
  }

let test_median_run () =
  let runs = [ run_with ~wall:1.0 5; run_with ~wall:9.0 5; run_with ~wall:2.0 7 ] in
  match Obs.History.median_run runs with
  | Error e -> Alcotest.fail e
  | Ok m ->
    let s = List.assoc "E1" m.Obs.History.sections in
    Alcotest.(check (float 1e-9)) "lower-median wall" 2.0 s.Obs.History.wall_s;
    (match List.assoc "core.ops" s.Obs.History.metrics with
     | Obs.Metrics.Counter 5 -> ()
     | _ -> Alcotest.fail "counter median should be 5 (an observed value)")

let test_sparkline () =
  Alcotest.(check string) "ramp" "▁▃▅█"
    (Obs.History.sparkline [ 0.0; 1.0; 2.0; 3.5 ]);
  Alcotest.(check string) "constant" "▄▄▄"
    (Obs.History.sparkline [ 2.0; 2.0; 2.0 ]);
  Alcotest.(check string) "empty" "" (Obs.History.sparkline [])

(* -- the golden diff ------------------------------------------------------ *)

let golden_baseline =
  {
    Obs.History.meta = None;
    sections =
      [
        ( "E1",
          {
            Obs.History.wall_s = 1.0;
            metrics =
              [
                ("alpha.count", Obs.Metrics.Counter 10);
                ("beta.level", Obs.Metrics.Gauge 2.0);
              ];
          } );
        ("E2", { Obs.History.wall_s = 0.5; metrics = [] });
      ];
    timings = [];
  }

let golden_candidate =
  {
    Obs.History.meta = None;
    sections =
      [
        ( "E1",
          {
            Obs.History.wall_s = 1.5;
            metrics =
              [
                ("alpha.count", Obs.Metrics.Counter 12);
                ("beta.level", Obs.Metrics.Gauge 2.0);
              ];
          } );
        ("E2", { Obs.History.wall_s = 0.5; metrics = [] });
      ];
    timings = [];
  }

let test_golden_diff () =
  let expected =
    "== E1 ==\n\
    \  wall_s  1 -> 1.5  (+50.0%)\n\
    \  alpha.count  10 -> 12  (+2)\n\
     == E2 ==\n\
    \  wall_s  0.5 -> 0.5  (+0.0%)\n\
    \  (no metric drift)\n"
  in
  Alcotest.(check string) "ppreport diff rendering" expected
    (Obs.Regress.render_diff ~baseline:golden_baseline
       ~candidate:golden_candidate)

(* -- the regression gate -------------------------------------------------- *)

let test_check_passes_on_identical () =
  let v =
    Obs.Regress.check ~baseline:golden_baseline ~candidate:golden_baseline ()
  in
  Alcotest.(check bool) "no failure" false (Obs.Regress.failed v);
  Alcotest.(check int) "sections" 2 v.Obs.Regress.sections_checked

let test_check_fails_on_perturbed_counter () =
  (* the negative test the gate exists for: one deterministic counter
     off by 1 must fail, and the finding must name section and metric *)
  let perturbed =
    {
      golden_baseline with
      Obs.History.sections =
        List.map
          (fun (id, s) ->
            if id <> "E1" then (id, s)
            else
              ( id,
                {
                  s with
                  Obs.History.metrics =
                    List.map
                      (fun (name, v) ->
                        match v with
                        | Obs.Metrics.Counter n when name = "alpha.count" ->
                          (name, Obs.Metrics.Counter (n + 1))
                        | _ -> (name, v))
                      s.Obs.History.metrics;
                } ))
          golden_baseline.Obs.History.sections;
    }
  in
  let v =
    Obs.Regress.check ~baseline:golden_baseline ~candidate:perturbed ()
  in
  Alcotest.(check bool) "gate failed" true (Obs.Regress.failed v);
  let f =
    List.find
      (fun f -> f.Obs.Regress.severity = Obs.Regress.Fail)
      v.Obs.Regress.findings
  in
  Alcotest.(check string) "names the section" "E1" f.Obs.Regress.section;
  Alcotest.(check string) "names the counter" "alpha.count" f.Obs.Regress.metric;
  (* and the rendered verdict carries both, for the CI log *)
  let text = Obs.Regress.render_verdict v in
  Alcotest.(check bool) "rendered" true
    (let has_infix ~infix s =
       let n = String.length s and m = String.length infix in
       let rec go i = i + m <= n && (String.sub s i m = infix || go (i + 1)) in
       go 0
     in
     has_infix ~infix:"FAIL E1 alpha.count" text)

let test_check_tolerates_wall_noise () =
  let noisy =
    {
      golden_baseline with
      Obs.History.sections =
        List.map
          (fun (id, s) -> (id, { s with Obs.History.wall_s = s.Obs.History.wall_s *. 1.4 }))
          golden_baseline.Obs.History.sections;
    }
  in
  let v = Obs.Regress.check ~baseline:golden_baseline ~candidate:noisy () in
  Alcotest.(check bool) "40% wall drift passes the default tolerance" false
    (Obs.Regress.failed v);
  let crawl =
    {
      golden_baseline with
      Obs.History.sections =
        [ ("E1", { (List.assoc "E1" golden_baseline.Obs.History.sections) with Obs.History.wall_s = 30.0 }) ];
    }
  in
  let v = Obs.Regress.check ~baseline:golden_baseline ~candidate:crawl () in
  Alcotest.(check bool) "30x wall drift fails" true (Obs.Regress.failed v)

let test_check_ignores_environment_metrics () =
  let with_gc gc =
    {
      Obs.History.meta = None;
      sections =
        [
          ( "E1",
            {
              Obs.History.wall_s = 1.0;
              metrics =
                [
                  ("core.ops", Obs.Metrics.Counter 5);
                  ("gc.heap_words", Obs.Metrics.Gauge gc);
                ];
            } );
        ];
      timings = [];
    }
  in
  let v =
    Obs.Regress.check ~baseline:(with_gc 1e6) ~candidate:(with_gc 1e9) ()
  in
  Alcotest.(check bool) "gc.* skipped by default" false (Obs.Regress.failed v)

let test_check_missing_section () =
  let config =
    { Obs.Regress.default_config with Obs.Regress.sections = Some [ "E1"; "EX" ] }
  in
  let v =
    Obs.Regress.check ~config ~baseline:golden_baseline
      ~candidate:golden_baseline ()
  in
  Alcotest.(check bool) "requested section missing fails" true
    (Obs.Regress.failed v)

(* -- export --------------------------------------------------------------- *)

let test_export_write_now () =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) @@ fun () ->
  let c = Obs.Metrics.counter "test.export_ticks" in
  Obs.Metrics.add c 3;
  let h = Obs.Metrics.histogram "test.export_sizes" ~bounds:[| 1.0; 10.0 |] in
  Obs.Metrics.observe h 5.0;
  let path = Filename.temp_file "ppmetrics" ".json" in
  let prom = Obs.Export.prom_path path in
  Fun.protect ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; prom ])
  @@ fun () ->
  Alcotest.(check string) "prom sibling path" (Filename.chop_suffix path ".json" ^ ".prom") prom;
  let meta = Obs.Run_meta.collect ~jobs:2 () in
  Obs.Export.write_now ~meta ~t0:(Obs.Clock.now_ns ()) ~path ();
  Alcotest.(check bool) "no tmp litter" false (Sys.file_exists (path ^ ".tmp"));
  (match Obs.Json.parse (In_channel.with_open_text path In_channel.input_all) with
   | Ok (Obs.Json.Obj fields) ->
     Alcotest.(check bool) "schema" true
       (List.assoc_opt "schema" fields = Some (Obs.Json.String "ppmetrics/v2"));
     Alcotest.(check bool) "no workers section without a fleet" false
       (List.mem_assoc "workers" fields);
     Alcotest.(check bool) "has meta" true (List.mem_assoc "meta" fields);
     (match List.assoc_opt "metrics" fields with
      | Some m ->
        (match Obs.Metrics.of_json_value m with
         | Ok snap ->
           Alcotest.(check bool) "exported counter present" true
             (List.assoc_opt "test.export_ticks" snap
              = Some (Obs.Metrics.Counter 3))
         | Error e -> Alcotest.failf "metrics do not parse: %s" e)
      | None -> Alcotest.fail "no metrics field")
   | Ok _ -> Alcotest.fail "snapshot is not an object"
   | Error e -> Alcotest.failf "snapshot does not parse: %s" e);
  let prom_text = In_channel.with_open_text prom In_channel.input_all in
  let has_infix ~infix s =
    let n = String.length s and m = String.length infix in
    let rec go i = i + m <= n && (String.sub s i m = infix || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "prometheus counter line" true
    (has_infix ~infix:"pp_test_export_ticks 3" prom_text);
  Alcotest.(check bool) "prometheus build info" true
    (has_infix ~infix:"pp_build_info{" prom_text);
  Alcotest.(check bool) "histogram +Inf bucket" true
    (has_infix ~infix:"pp_test_export_sizes_bucket{le=\"+Inf\"} 1" prom_text);
  Alcotest.(check bool) "histogram buckets are cumulative" true
    (has_infix ~infix:"pp_test_export_sizes_bucket{le=\"10\"} 1" prom_text)

let test_export_fleet () =
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Export.set_fleet None;
      Obs.Export.set_identity [])
  @@ fun () ->
  let row =
    {
      Obs.Export.fw_worker = "fork0-123";
      fw_host = "node-a";
      fw_pid = 123;
      fw_last_seen_s = 0.5;
      fw_offset_s = 0.001;
      fw_chunks_done = 7;
      fw_leased = 2;
      fw_events = 40;
      fw_metrics =
        [
          ("bb.codes_scanned", Obs.Metrics.Counter 1000);
          ( "ensemble.trial_steps",
            Obs.Metrics.Histogram
              { bounds = [| 1.0 |]; counts = [| 2; 1 |]; sum = 4.0; count = 3 } );
        ];
    }
  in
  Obs.Export.set_identity [ ("role", "coordinator") ];
  Obs.Export.set_fleet (Some (fun () -> [ row ]));
  let path = Filename.temp_file "ppmetrics" ".json" in
  let prom = Obs.Export.prom_path path in
  Fun.protect ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; prom ])
  @@ fun () ->
  Obs.Export.write_now ~t0:(Obs.Clock.now_ns ()) ~path ();
  (match Obs.Json.parse (In_channel.with_open_text path In_channel.input_all) with
   | Ok (Obs.Json.Obj fields) ->
     Alcotest.(check bool) "fleet snapshots are ppmetrics/v2" true
       (List.assoc_opt "schema" fields = Some (Obs.Json.String "ppmetrics/v2"));
     (match List.assoc_opt "workers" fields with
      | Some (Obs.Json.List [ Obs.Json.Obj w ]) ->
        Alcotest.(check bool) "worker name" true
          (List.assoc_opt "worker" w = Some (Obs.Json.String "fork0-123"));
        Alcotest.(check bool) "chunk count" true
          (List.assoc_opt "chunks_done" w = Some (Obs.Json.Int 7));
        Alcotest.(check bool) "per-worker metrics round-trip" true
          (match List.assoc_opt "metrics" w with
           | Some m ->
             (match Obs.Metrics.of_json_value m with
              | Ok snap ->
                List.assoc_opt "bb.codes_scanned" snap
                = Some (Obs.Metrics.Counter 1000)
              | Error _ -> false)
           | None -> false)
      | _ -> Alcotest.fail "expected a one-row workers section")
   | Ok _ -> Alcotest.fail "snapshot is not an object"
   | Error e -> Alcotest.failf "snapshot does not parse: %s" e);
  let prom_text = In_channel.with_open_text prom In_channel.input_all in
  let has_infix ~infix s =
    let n = String.length s and m = String.length infix in
    let rec go i = i + m <= n && (String.sub s i m = infix || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "build info carries identity labels" true
    (has_infix ~infix:"role=\"coordinator\"" prom_text);
  Alcotest.(check bool) "fleet worker info series" true
    (has_infix
       ~infix:
         "pp_fleet_worker_info{worker=\"fork0-123\",host=\"node-a\",pid=\"123\"} 1"
       prom_text);
  Alcotest.(check bool) "fleet chunk counter" true
    (has_infix ~infix:"pp_fleet_chunks_done{worker=\"fork0-123\"" prom_text);
  Alcotest.(check bool) "per-worker metric family" true
    (has_infix
       ~infix:"pp_worker_bb_codes_scanned{worker=\"fork0-123\",host=\"node-a\"} 1000"
       prom_text);
  Alcotest.(check bool) "per-worker histogram buckets carry labels" true
    (has_infix
       ~infix:
         "pp_worker_ensemble_trial_steps_bucket{worker=\"fork0-123\",host=\"node-a\",le=\"+Inf\"} 3"
       prom_text);
  (* with the provider removed the schema stays and the workers go *)
  Obs.Export.set_fleet None;
  Obs.Export.write_now ~t0:(Obs.Clock.now_ns ()) ~path ();
  match Obs.Json.parse (In_channel.with_open_text path In_channel.input_all) with
  | Ok (Obs.Json.Obj fields) ->
    Alcotest.(check bool) "still ppmetrics/v2" true
      (List.assoc_opt "schema" fields = Some (Obs.Json.String "ppmetrics/v2"));
    Alcotest.(check bool) "workers section gone" false
      (List.mem_assoc "workers" fields)
  | _ -> Alcotest.fail "second snapshot does not parse"

let test_export_periodic () =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) @@ fun () ->
  let path = Filename.temp_file "ppmetrics" ".json" in
  let prom = Obs.Export.prom_path path in
  Fun.protect ~finally:(fun () ->
      Obs.Export.stop ();
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; prom ])
  @@ fun () ->
  let c = Obs.Metrics.counter "test.export_live" in
  Obs.Export.start ~every_s:0.05 ~path ();
  Alcotest.(check bool) "exporter active" true (Obs.Export.active ());
  Obs.Metrics.add c 41;
  Unix.sleepf 0.25;
  Obs.Export.stop ();
  Alcotest.(check bool) "exporter stopped" false (Obs.Export.active ());
  match Obs.Json.parse (In_channel.with_open_text path In_channel.input_all) with
  | Ok (Obs.Json.Obj fields) ->
    Alcotest.(check bool) "periodic snapshots are ppmetrics/v2" true
      (List.assoc_opt "schema" fields = Some (Obs.Json.String "ppmetrics/v2"));
    (match List.assoc_opt "metrics" fields with
     | Some m ->
       (match Obs.Metrics.of_json_value m with
        | Ok snap ->
          Alcotest.(check bool) "final snapshot carries the live counter" true
            (match List.assoc_opt "test.export_live" snap with
             | Some (Obs.Metrics.Counter n) -> n >= 41
             | _ -> false)
        | Error e -> Alcotest.failf "metrics do not parse: %s" e)
     | None -> Alcotest.fail "no metrics field")
  | Ok _ -> Alcotest.fail "snapshot is not an object"
  | Error e -> Alcotest.failf "snapshot does not parse: %s" e

let () =
  Alcotest.run "report"
    [
      ( "records",
        [
          run_roundtrip_prop;
          run_bytes_stable_prop;
          meta_roundtrip_prop;
          Alcotest.test_case "Run_meta.collect" `Quick test_run_meta_collect;
          Alcotest.test_case "ppbench/v1 is an unknown schema" `Quick
            test_ppbench_v1_rejected;
        ] );
      ( "ledger",
        [
          ledger_roundtrip_prop;
          Alcotest.test_case "malformed line is an error" `Quick
            test_ledger_bad_line;
          Alcotest.test_case "median run" `Quick test_median_run;
          Alcotest.test_case "sparkline" `Quick test_sparkline;
        ] );
      ( "diff",
        [ Alcotest.test_case "golden ppreport diff" `Quick test_golden_diff ] );
      ( "check",
        [
          Alcotest.test_case "identical runs pass" `Quick
            test_check_passes_on_identical;
          Alcotest.test_case "counter perturbed by 1 fails, named" `Quick
            test_check_fails_on_perturbed_counter;
          Alcotest.test_case "wall noise tolerated, blowup fails" `Quick
            test_check_tolerates_wall_noise;
          Alcotest.test_case "environment metrics ignored" `Quick
            test_check_ignores_environment_metrics;
          Alcotest.test_case "requested section missing fails" `Quick
            test_check_missing_section;
        ] );
      ( "export",
        [
          Alcotest.test_case "atomic JSON + Prometheus write" `Quick
            test_export_write_now;
          Alcotest.test_case "fleet section: ppmetrics/v2 + labelled prom"
            `Quick test_export_fleet;
          Alcotest.test_case "periodic exporter" `Quick test_export_periodic;
        ] );
    ]
