(* The observability layer: atomic counter totals under concurrent
   domains, well-nestedness of span streams, JSON snapshot round-trips,
   progress throttling — and the regression that matters most: enabling
   metrics must not change a single byte of the ensemble's aggregate
   output. *)

let prop name ?(count = 100) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let with_metrics f =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) f

(* fresh names per call so properties don't see earlier counts *)
let fresh =
  let k = ref 0 in
  fun prefix ->
    incr k;
    Printf.sprintf "test.%s%d" prefix !k

(* -- metrics -------------------------------------------------------------- *)

let concurrent_counter_prop =
  prop "counter total under concurrent domain increments" ~count:20
    QCheck.(pair (int_range 1 4) (int_range 1 2000))
    (fun (domains, per_domain) ->
      with_metrics (fun () ->
          let c = Obs.Metrics.counter (fresh "concurrent") in
          let pool =
            List.init domains (fun _ ->
                Domain.spawn (fun () ->
                    for _ = 1 to per_domain do
                      Obs.Metrics.incr c
                    done))
          in
          List.iter Domain.join pool;
          Obs.Metrics.value c = domains * per_domain))

let test_disabled_mutations_are_noops () =
  Obs.Metrics.set_enabled false;
  let c = Obs.Metrics.counter (fresh "noop") in
  let g = Obs.Metrics.gauge (fresh "noop") in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  Obs.Metrics.set g 3.0;
  Alcotest.(check int) "counter untouched" 0 (Obs.Metrics.value c);
  Alcotest.(check (float 0.0)) "gauge untouched" 0.0 (Obs.Metrics.gauge_value g)

let test_registration_is_idempotent () =
  let name = fresh "idem" in
  let c = Obs.Metrics.counter name in
  with_metrics (fun () -> Obs.Metrics.add c 5);
  let c' = Obs.Metrics.counter name in
  Alcotest.(check int) "same cell" 5 (Obs.Metrics.value c');
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument
       (Printf.sprintf "Obs.Metrics: %S already registered with a different kind"
          name))
    (fun () -> ignore (Obs.Metrics.gauge name))

let test_diff_drops_quiet_metrics () =
  with_metrics (fun () ->
      let c = Obs.Metrics.counter (fresh "active") in
      let _quiet = Obs.Metrics.counter (fresh "quiet") in
      let before = Obs.Metrics.snapshot () in
      Obs.Metrics.add c 7;
      (* GC/RSS gauges legitimately move between snapshots; the test is
         about the test.* cells staying quiet *)
      let d =
        Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ())
        |> List.filter (fun (name, _) ->
               String.length name >= 5 && String.sub name 0 5 = "test.")
      in
      match d with
      | [ (_, Obs.Metrics.Counter 7) ] -> ()
      | _ -> Alcotest.failf "unexpected diff of %d entries" (List.length d))

(* merge is what a coordinator does with the per-heartbeat diffs a
   worker streams up: applying the diff to the before-snapshot must
   reconstruct the after-snapshot, for counters and histograms both *)
let test_merge_inverts_diff () =
  with_metrics (fun () ->
      let c = Obs.Metrics.counter (fresh "merge_c") in
      let h =
        Obs.Metrics.histogram ~bounds:[| 1.0; 10.0 |] (fresh "merge_h")
      in
      let keep = List.filter (fun (n, _) -> String.length n >= 5 && String.sub n 0 5 = "test.") in
      Obs.Metrics.add c 3;
      Obs.Metrics.observe h 0.5;
      let before = keep (Obs.Metrics.snapshot ()) in
      Obs.Metrics.add c 4;
      Obs.Metrics.observe h 5.0;
      Obs.Metrics.observe h 100.0;
      let after = keep (Obs.Metrics.snapshot ()) in
      let d = Obs.Metrics.diff ~before ~after in
      let merged = Obs.Metrics.merge before d in
      Alcotest.(check bool) "merge before (diff before after) = after" true
        (List.sort compare merged = List.sort compare after))

let test_merge_new_and_mismatched () =
  let base = [ ("a", Obs.Metrics.Counter 2); ("g", Obs.Metrics.Gauge 1.0) ] in
  let delta =
    [ ("a", Obs.Metrics.Counter 5); ("b", Obs.Metrics.Counter 1);
      ("g", Obs.Metrics.Gauge 9.0) ]
  in
  let m = Obs.Metrics.merge base delta in
  Alcotest.(check bool) "counters add" true
    (List.assoc_opt "a" m = Some (Obs.Metrics.Counter 7));
  Alcotest.(check bool) "new entries appear" true
    (List.assoc_opt "b" m = Some (Obs.Metrics.Counter 1));
  Alcotest.(check bool) "gauges take the delta value" true
    (List.assoc_opt "g" m = Some (Obs.Metrics.Gauge 9.0))

let test_snapshot_publishes_process_stats () =
  with_metrics (fun () ->
      let s = Obs.Metrics.snapshot () in
      List.iter
        (fun name ->
          match List.assoc_opt name s with
          | Some (Obs.Metrics.Gauge v) ->
            Alcotest.(check bool)
              (name ^ " is a nonnegative gauge")
              true (v >= 0.0)
          | _ -> Alcotest.failf "%s missing from snapshot" name)
        [
          "gc.minor_collections"; "gc.major_collections"; "gc.heap_words";
          "process.max_rss_kb";
        ];
      (* on Linux the RSS peak is real and strictly positive *)
      if Sys.file_exists "/proc/self/status" then
        match List.assoc_opt "process.max_rss_kb" s with
        | Some (Obs.Metrics.Gauge v) ->
          Alcotest.(check bool) "max_rss_kb > 0" true (v > 0.0)
        | _ -> Alcotest.fail "process.max_rss_kb missing")

let test_histogram_quantiles () =
  with_metrics (fun () ->
      let name = fresh "quant" in
      let h = Obs.Metrics.histogram ~bounds:[| 10.0; 20.0; 30.0 |] name in
      (* counts per bucket: le10 -> 1, le20 -> 2, le30 -> 3, inf -> 1 *)
      List.iter (Obs.Metrics.observe h)
        [ 5.0; 15.0; 15.0; 25.0; 25.0; 25.0; 35.0 ];
      match List.assoc_opt name (Obs.Metrics.snapshot ()) with
      | Some v ->
        let q p = Option.get (Obs.Metrics.quantile v p) in
        (* rank 3.5 of 7 lands in the (20,30] bucket at fraction 1/6 *)
        Alcotest.(check (float 1e-9)) "p50" (20.0 +. (10.0 /. 6.0)) (q 0.5);
        (* rank 6.3 overflows into the +inf bucket: its lower edge *)
        Alcotest.(check (float 1e-9)) "p90" 30.0 (q 0.9);
        Alcotest.(check (float 1e-9)) "p99" 30.0 (q 0.99);
        (* rank 0 clamps into the first occupied bucket *)
        Alcotest.(check bool) "p0 is finite" true (Float.is_finite (q 0.0));
        Alcotest.check_raises "q out of range"
          (Invalid_argument "Obs.Metrics.quantile: q must be in [0,1]")
          (fun () -> ignore (q 1.5))
      | None -> Alcotest.fail "histogram not in snapshot")

let test_quantiles_of_trial_steps () =
  (* the real ensemble.trial_steps histogram: quantile estimates must
     be monotone and land within the observed range *)
  Obs.Metrics.reset ();
  with_metrics (fun () ->
      let before = Obs.Metrics.snapshot () in
      let e =
        Ensemble.run_input ~jobs:2 ~seed:7 ~trials:20 (Flock.succinct 2)
          [| 10 |]
      in
      ignore (Ensemble.summary e);
      let d = Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ()) in
      match List.assoc_opt "ensemble.trial_steps" d with
      | Some (Obs.Metrics.Histogram { count; _ } as v) ->
        Alcotest.(check int) "one observation per trial" 20 count;
        let q p = Option.get (Obs.Metrics.quantile v p) in
        Alcotest.(check bool) "p50 <= p90 <= p99" true
          (q 0.5 <= q 0.9 && q 0.9 <= q 0.99);
        Alcotest.(check bool) "positive" true (q 0.5 > 0.0)
      | _ -> Alcotest.fail "ensemble.trial_steps not recorded");
  Obs.Metrics.reset ()

let test_histogram_buckets () =
  with_metrics (fun () ->
      let name = fresh "hist" in
      let h = Obs.Metrics.histogram ~bounds:[| 1.0; 10.0 |] name in
      List.iter (Obs.Metrics.observe h) [ 0.5; 5.0; 50.0; 500.0 ];
      match List.assoc_opt name (Obs.Metrics.snapshot ()) with
      | Some (Obs.Metrics.Histogram { counts; sum; count; _ }) ->
        Alcotest.(check (array int)) "bucket counts" [| 1; 1; 2 |] counts;
        Alcotest.(check (float 1e-9)) "sum" 555.5 sum;
        Alcotest.(check int) "count" 4 count
      | _ -> Alcotest.fail "histogram not in snapshot")

(* -- JSON ----------------------------------------------------------------- *)

let json_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              return Obs.Json.Null;
              map (fun b -> Obs.Json.Bool b) bool;
              map (fun i -> Obs.Json.Int i) int;
              map (fun f -> Obs.Json.Float f) float;
              map (fun s -> Obs.Json.String s) (string_size (int_bound 12));
            ]
        in
        if n = 0 then leaf
        else
          frequency
            [
              (3, leaf);
              ( 1,
                map (fun l -> Obs.Json.List l)
                  (list_size (int_bound 4) (self (n / 2))) );
              ( 1,
                map (fun l -> Obs.Json.Obj l)
                  (list_size (int_bound 4)
                     (pair (string_size (int_bound 8)) (self (n / 2)))) );
            ]))

let rec json_finite = function
  | Obs.Json.Float f -> Float.is_finite f
  | Obs.Json.List l -> List.for_all json_finite l
  | Obs.Json.Obj l -> List.for_all (fun (_, v) -> json_finite v) l
  | _ -> true

let json_roundtrip_prop =
  prop "Json.parse inverts Json.to_string" ~count:500
    (QCheck.make ~print:(fun j -> Obs.Json.to_string j) json_gen)
    (fun j ->
      QCheck.assume (json_finite j);
      Obs.Json.parse (Obs.Json.to_string j) = Ok j)

let snapshot_roundtrip_prop =
  prop "metric snapshot survives a JSON round-trip" ~count:50
    QCheck.(triple (int_range 0 10_000) (float_range 0.0 1e9) (small_list pos_float))
    (fun (n, g, obs) ->
      with_metrics (fun () ->
          let c = Obs.Metrics.counter (fresh "rt_c") in
          let gg = Obs.Metrics.gauge (fresh "rt_g") in
          let h = Obs.Metrics.histogram (fresh "rt_h") in
          Obs.Metrics.add c n;
          Obs.Metrics.set gg g;
          List.iter (Obs.Metrics.observe h) obs;
          let s = Obs.Metrics.snapshot () in
          Obs.Metrics.of_json (Obs.Metrics.to_json s) = Ok s))

(* the committed bench baseline: every section's metrics block must
   survive Metrics.of_json/to_json byte-stably (quantiles are derived,
   so re-rendering recomputes identical values), and the whole file
   must round-trip through the History record type *)
let test_bench_results_roundtrip () =
  let path = "../BENCH_results.json" in
  let contents = In_channel.with_open_text path In_channel.input_all in
  match Obs.Json.parse contents with
  | Error e -> Alcotest.failf "BENCH_results.json does not parse: %s" e
  | Ok (Obs.Json.Obj fields as doc) ->
    let sections =
      match List.assoc_opt "sections" fields with
      | Some (Obs.Json.List l) -> l
      | _ -> Alcotest.fail "no sections list"
    in
    Alcotest.(check bool) "has sections" true (List.length sections > 0);
    List.iter
      (function
        | Obs.Json.Obj sfields ->
          let id =
            match List.assoc_opt "id" sfields with
            | Some (Obs.Json.String id) -> id
            | _ -> "?"
          in
          let metrics =
            match List.assoc_opt "metrics" sfields with
            | Some m -> m
            | None -> Alcotest.failf "section %s has no metrics" id
          in
          let original = Obs.Json.to_string metrics in
          (match Obs.Metrics.of_json original with
           | Error e -> Alcotest.failf "section %s metrics do not parse: %s" id e
           | Ok snap ->
             Alcotest.(check string)
               (Printf.sprintf "section %s metrics round-trip byte-stably" id)
               original
               (Obs.Metrics.to_json snap))
        | _ -> Alcotest.fail "section is not an object")
      sections;
    (match Obs.History.run_of_json doc with
     | Error e -> Alcotest.failf "History.run_of_json: %s" e
     | Ok run ->
       Alcotest.(check bool) "meta present (ppbench/v2)" true
         (run.Obs.History.meta <> None);
       Alcotest.(check string) "whole file round-trips byte-stably"
         (String.trim contents)
         (Obs.Json.to_string (Obs.History.run_to_json run)))
  | Ok _ -> Alcotest.fail "BENCH_results.json is not an object"

(* -- tracing -------------------------------------------------------------- *)

(* random span trees executed depth-first on the calling domain *)
type span_tree = Span of span_tree list

let span_tree_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n = 0 then return (Span [])
        else map (fun kids -> Span kids) (list_size (int_bound 3) (self (n / 2)))))

let run_spans trees =
  let rec go i (Span kids) =
    Obs.Trace.with_span (Printf.sprintf "s%d" i) (fun () -> List.iteri go kids)
  in
  List.iteri go trees

let well_nested events =
  (* events arrive in completion order; same-domain spans must be
     properly nested or disjoint, and completion times nondecreasing *)
  let ends_monotone =
    let rec go last = function
      | [] -> true
      | e :: rest ->
        let fin = Int64.add e.Obs.Trace.ts_ns e.Obs.Trace.dur_ns in
        Int64.compare last fin <= 0 && go fin rest
    in
    go Int64.min_int events
  in
  let nested_or_disjoint a b =
    let a0 = a.Obs.Trace.ts_ns
    and a1 = Int64.add a.Obs.Trace.ts_ns a.Obs.Trace.dur_ns in
    let b0 = b.Obs.Trace.ts_ns
    and b1 = Int64.add b.Obs.Trace.ts_ns b.Obs.Trace.dur_ns in
    let inside x0 x1 y0 y1 = Int64.compare y0 x0 <= 0 && Int64.compare x1 y1 <= 0 in
    inside a0 a1 b0 b1 || inside b0 b1 a0 a1
    || Int64.compare a1 b0 <= 0
    || Int64.compare b1 a0 <= 0
  in
  let rec pairs = function
    | [] -> true
    | e :: rest ->
      List.for_all
        (fun e' -> e.Obs.Trace.tid <> e'.Obs.Trace.tid || nested_or_disjoint e e')
        rest
      && pairs rest
  in
  ends_monotone && pairs events

let span_nesting_prop =
  prop "span streams are well-nested with monotone completion times" ~count:50
    (QCheck.make QCheck.Gen.(list_size (int_bound 4) span_tree_gen))
    (fun trees ->
      Obs.Trace.start_memory ();
      run_spans trees;
      let events = Obs.Trace.stop () in
      let rec size (Span kids) = List.fold_left (fun a k -> a + size k) 1 kids in
      List.length events = List.fold_left (fun a k -> a + size k) 0 trees
      && well_nested events)

let test_span_emits_on_exception () =
  Obs.Trace.start_memory ();
  (try
     Obs.Trace.with_span "outer" (fun () ->
         Obs.Trace.with_span "inner" (fun () -> failwith "boom"))
   with Failure _ -> ());
  let events = Obs.Trace.stop () in
  Alcotest.(check (list string))
    "both spans emitted, inner first"
    [ "inner"; "outer" ]
    (List.map (fun e -> e.Obs.Trace.name) events)

let test_trace_file_is_valid_json () =
  let path = Filename.temp_file "obs_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Trace.start_file path;
  Obs.Trace.with_span "a" ~cat:"test" (fun () ->
      Obs.Trace.with_span "b" ~args:[ ("k", "v") ] (fun () -> ());
      Obs.Trace.instant "mark");
  ignore (Obs.Trace.stop ());
  let contents = In_channel.with_open_text path In_channel.input_all in
  match Obs.Json.parse contents with
  | Ok (Obs.Json.List events) ->
    (* b, mark, a, plus the trace.stop footer *)
    Alcotest.(check int) "event count" 4 (List.length events);
    List.iter
      (function
        | Obs.Json.Obj fields ->
          Alcotest.(check bool) "has name" true (List.mem_assoc "name" fields);
          Alcotest.(check bool) "has ph" true (List.mem_assoc "ph" fields)
        | _ -> Alcotest.fail "event is not an object")
      events
  | Ok _ -> Alcotest.fail "trace is not a JSON array"
  | Error e -> Alcotest.failf "trace does not parse: %s" e

(* -- progress ------------------------------------------------------------- *)

let with_progress_capture f =
  let path = Filename.temp_file "obs_progress" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let out = Out_channel.open_text path in
  Obs.Progress.set_enabled true;
  let r =
    Fun.protect
      ~finally:(fun () ->
        Obs.Progress.set_enabled false;
        Out_channel.close out)
      (fun () -> f out)
  in
  (r, In_channel.with_open_text path In_channel.input_all)

let test_progress_throttles () =
  let (ticks, lines), output =
    with_progress_capture (fun out ->
        (* an hour-long interval: many ticks, no output *)
        let t = Obs.Progress.create ~interval_s:3600.0 ~out "quiet" in
        for _ = 1 to 10_000 do
          Obs.Progress.tick t (fun () -> "should never print")
        done;
        Obs.Progress.finish t (fun () -> "nor the final line");
        (* a zero interval: every tick prints *)
        let t' = Obs.Progress.create ~interval_s:0.0 ~out "chatty" in
        for i = 1 to 3 do
          Obs.Progress.tick t' (fun () -> Printf.sprintf "tick %d" i)
        done;
        Obs.Progress.finish t' (fun () -> "done");
        (Obs.Progress.lines t, Obs.Progress.lines t'))
  in
  Alcotest.(check int) "throttled reporter stayed silent" 0 ticks;
  Alcotest.(check int) "chatty reporter printed 3 ticks + finish" 4 lines;
  Alcotest.(check bool) "lines carry the label" true
    (String.length output > 0
    && List.for_all
         (fun l -> String.length l = 0 || String.sub l 0 1 = "[")
         (String.split_on_char '\n' output))

let test_progress_disabled_is_silent () =
  Obs.Progress.set_enabled false;
  let t = Obs.Progress.create ~interval_s:0.0 "off" in
  for _ = 1 to 100 do
    Obs.Progress.tick t (fun () -> Alcotest.fail "thunk forced while disabled")
  done;
  Alcotest.(check int) "no lines" 0 (Obs.Progress.lines t)

(* -- budget --------------------------------------------------------------- *)

let test_budget_exceeded_carries_stats () =
  match
    raise
      (Obs.Budget.exceeded ~source:"test.engine" ~resource:"nodes" ~limit:10.0
         ~consumed:[ ("nodes", 11.0); ("edges", 40.0) ]
         ())
  with
  | _ -> Alcotest.fail "unreachable"
  | exception Obs.Budget.Exceeded info ->
    Alcotest.(check string) "source" "test.engine" info.Obs.Budget.source;
    Alcotest.(check string) "resource" "nodes" info.Obs.Budget.resource;
    Alcotest.(check (float 0.0)) "limit" 10.0 info.Obs.Budget.limit;
    Alcotest.(check (float 0.0)) "consumed" 11.0
      (List.assoc "nodes" info.Obs.Budget.consumed);
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    let d = Obs.Budget.describe info in
    Alcotest.(check bool) "describe names the engine" true
      (contains d "test.engine")

let test_budget_deadline () =
  let d = Obs.Budget.deadline_in ~source:"test.deadline" 3600.0 in
  Alcotest.(check bool) "hour-long deadline not expired" false
    (Obs.Budget.expired d);
  Obs.Budget.raise_if_expired ~consumed:[] d;
  let d0 = Obs.Budget.deadline_in ~source:"test.deadline" 0.0 in
  Alcotest.(check bool) "zero deadline expires" true
    (let rec spin n = Obs.Budget.expired d0 || (n > 0 && spin (n - 1)) in
     spin 1_000_000);
  match Obs.Budget.raise_if_expired ~consumed:[ ("configs", 5.0) ] d0 with
  | () -> Alcotest.fail "expired deadline did not raise"
  | exception Obs.Budget.Exceeded info ->
    Alcotest.(check string) "resource is wall_s" "wall_s" info.Obs.Budget.resource;
    Alcotest.(check string) "source" "test.deadline" info.Obs.Budget.source

(* -- checkpoint ----------------------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "obs_ckpt" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let sample_checkpoint () =
  let config = Obs.Json.Obj [ ("n", Obs.Json.Int 3); ("chunk", Obs.Json.Int 16) ] in
  let cp = Obs.Checkpoint.create ~config ~total_chunks:10 in
  Obs.Checkpoint.mark_done cp 0 (Obs.Json.Obj [ ("scanned", Obs.Json.Int 16) ]);
  Obs.Checkpoint.mark_done cp 7 (Obs.Json.Obj [ ("scanned", Obs.Json.Int 9) ]);
  cp

let checkpoints_equal a b =
  a.Obs.Checkpoint.config_hash = b.Obs.Checkpoint.config_hash
  && a.Obs.Checkpoint.total_chunks = b.Obs.Checkpoint.total_chunks
  && a.Obs.Checkpoint.state = b.Obs.Checkpoint.state

let test_checkpoint_roundtrip () =
  let cp = sample_checkpoint () in
  Alcotest.(check int) "two chunks done" 2 (Obs.Checkpoint.num_done cp);
  Alcotest.(check bool) "chunk 7 done" true (Obs.Checkpoint.is_done cp 7);
  Alcotest.(check bool) "chunk 3 not done" false (Obs.Checkpoint.is_done cp 3);
  match Obs.Checkpoint.of_json (Obs.Checkpoint.to_json cp) with
  | Error msg -> Alcotest.failf "of_json: %s" msg
  | Ok cp' ->
    Alcotest.(check bool) "JSON round-trip" true (checkpoints_equal cp cp')

let test_checkpoint_save_load () =
  with_temp_file (fun path ->
      let cp = sample_checkpoint () in
      Obs.Checkpoint.save ~path cp;
      (match Obs.Checkpoint.load path with
       | Error msg -> Alcotest.failf "load: %s" msg
       | Ok cp' ->
         Alcotest.(check bool) "file round-trip" true (checkpoints_equal cp cp'));
      (* a fresh snapshot of a different config must not validate
         against the old hash *)
      let other =
        Obs.Checkpoint.create
          ~config:(Obs.Json.Obj [ ("n", Obs.Json.Int 4) ])
          ~total_chunks:10
      in
      Alcotest.(check bool) "different config, different hash" false
        (other.Obs.Checkpoint.config_hash = cp.Obs.Checkpoint.config_hash))

let test_checkpoint_rejects_garbage () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "{\"schema\": \"ppcheckpoint/v2\", \"total_ch";
      close_out oc;
      match Obs.Checkpoint.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "truncated snapshot must not load")

let test_checkpoint_writer_flush () =
  with_temp_file (fun path ->
      let cp =
        Obs.Checkpoint.create
          ~config:(Obs.Json.Obj [ ("n", Obs.Json.Int 2) ])
          ~total_chunks:5
      in
      (* huge thresholds: only note_done's threshold crossing or flush
         may write *)
      let w = Obs.Checkpoint.writer ~every_chunks:1000 ~every_s:1e9 ~path cp in
      Obs.Checkpoint.note_done w 2 Obs.Json.Null;
      Obs.Checkpoint.flush w;
      match Obs.Checkpoint.load path with
      | Error msg -> Alcotest.failf "load after flush: %s" msg
      | Ok cp' ->
        Alcotest.(check int) "flushed chunk present" 1
          (Obs.Checkpoint.num_done cp');
        Alcotest.(check bool) "chunk 2 done" true (Obs.Checkpoint.is_done cp' 2))

(* -- shutdown ------------------------------------------------------------- *)

let test_shutdown_install_idempotent () =
  Obs.Shutdown.install ();
  Obs.Shutdown.install ();
  Alcotest.(check bool) "no signal yet" false (Obs.Shutdown.requested ());
  Alcotest.(check bool) "no exit code yet" true (Obs.Shutdown.exit_code () = None);
  (* nesting with_graceful must restore the depth on both paths *)
  let r =
    Obs.Shutdown.with_graceful (fun () ->
        Obs.Shutdown.with_graceful (fun () -> 41) + 1)
  in
  Alcotest.(check int) "nested graceful regions" 42 r;
  (match
     Obs.Shutdown.with_graceful (fun () -> raise (Failure "boom"))
   with
   | _ -> Alcotest.fail "exception swallowed"
   | exception Failure _ -> ());
  Obs.Shutdown.exit_if_requested ()

(* -- clock ---------------------------------------------------------------- *)

let test_clock_monotone () =
  let a = Obs.Clock.now_ns () in
  let b = Obs.Clock.now_ns () in
  Alcotest.(check bool) "now_ns never goes backwards" true (Int64.compare a b <= 0);
  Alcotest.(check bool) "elapsed_s is nonnegative" true (Obs.Clock.elapsed_s a >= 0.0)

(* -- the determinism regression ------------------------------------------- *)

let test_metrics_do_not_perturb_ensemble () =
  let run () =
    let e =
      Ensemble.run_input ~jobs:3 ~seed:20260805 ~trials:24 (Flock.succinct 2)
        [| 12 |]
    in
    Ensemble.summary e
  in
  Obs.Metrics.set_enabled false;
  let plain = run () in
  let instrumented = with_metrics run in
  Obs.Metrics.reset ();
  Alcotest.(check string)
    "aggregate summary is byte-identical with metrics enabled" plain instrumented

(* -- span ids ------------------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let span_forest_prop =
  prop "sid/parent ids form a forest mirroring the nesting" ~count:50
    (QCheck.make QCheck.Gen.(list_size (int_bound 4) span_tree_gen))
    (fun trees ->
      Obs.Trace.start_memory ();
      run_spans trees;
      let events = Obs.Trace.stop () in
      let sids = List.map (fun e -> e.Obs.Trace.sid) events in
      let by_sid = List.map (fun e -> (e.Obs.Trace.sid, e)) events in
      let contained c p =
        Int64.compare p.Obs.Trace.ts_ns c.Obs.Trace.ts_ns <= 0
        && Int64.compare
             (Int64.add c.Obs.Trace.ts_ns c.Obs.Trace.dur_ns)
             (Int64.add p.Obs.Trace.ts_ns p.Obs.Trace.dur_ns)
           <= 0
      in
      (* ids are positive and unique, every non-root parent id names a
         recorded span on the same domain whose interval contains the
         child, and there is exactly one root per top-level span *)
      List.for_all (fun s -> s > 0) sids
      && List.length (List.sort_uniq compare sids) = List.length sids
      && List.for_all
           (fun e ->
             e.Obs.Trace.parent = 0
             ||
             match List.assoc_opt e.Obs.Trace.parent by_sid with
             | None -> false
             | Some p -> p.Obs.Trace.tid = e.Obs.Trace.tid && contained e p)
           events
      && List.length (List.filter (fun e -> e.Obs.Trace.parent = 0) events)
         = List.length trees)

(* -- events --------------------------------------------------------------- *)

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let with_events f =
  let path = Filename.temp_file "obs_events" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.Events.start_file path;
      let r = Fun.protect ~finally:Obs.Events.stop f in
      (r, read_lines path))

let obj_of_line l =
  match Obs.Json.parse l with
  | Ok (Obs.Json.Obj fields) -> fields
  | _ -> Alcotest.failf "event line is not a JSON object: %s" l

let ev_name fields =
  match List.assoc_opt "ev" fields with
  | Some (Obs.Json.String s) -> s
  | _ -> "?"

let test_events_format () =
  let (), lines =
    with_events (fun () ->
        Obs.Events.emit "test.plain";
        Obs.Events.emit ~severity:Obs.Events.Warn
          ~data:[ ("k", Obs.Json.Int 7) ]
          "test.warn";
        Obs.Trace.with_span "evspan" (fun () -> Obs.Events.emit "test.inside"))
  in
  match lines with
  | [] -> Alcotest.fail "empty events file"
  | header :: rest ->
    let h = obj_of_line header in
    Alcotest.(check bool) "header carries the schema" true
      (List.assoc_opt "schema" h = Some (Obs.Json.String "ppevents/v1"));
    Alcotest.(check bool) "header has t0_utc" true (List.mem_assoc "t0_utc" h);
    let recs = List.map obj_of_line rest in
    List.iter
      (fun r ->
        Alcotest.(check bool) "record has ts_s" true (List.mem_assoc "ts_s" r);
        Alcotest.(check bool) "record has utc" true (List.mem_assoc "utc" r);
        Alcotest.(check bool) "record has sev" true (List.mem_assoc "sev" r))
      recs;
    let find name = List.find_opt (fun r -> ev_name r = name) recs in
    (match find "test.warn" with
     | None -> Alcotest.fail "test.warn not recorded"
     | Some r ->
       Alcotest.(check bool) "severity renders as \"warn\"" true
         (List.assoc_opt "sev" r = Some (Obs.Json.String "warn"));
       (match List.assoc_opt "data" r with
        | Some (Obs.Json.Obj d) ->
          Alcotest.(check bool) "data payload survives" true
            (List.assoc_opt "k" d = Some (Obs.Json.Int 7))
        | _ -> Alcotest.fail "test.warn lost its data object"));
    (match find "test.inside" with
     | None -> Alcotest.fail "test.inside not recorded"
     | Some r ->
       Alcotest.(check bool) "span correlation id inside with_span" true
         (match List.assoc_opt "span" r with
          | Some (Obs.Json.Int s) -> s > 0
          | _ -> false));
    (match find "test.plain" with
     | None -> Alcotest.fail "test.plain not recorded"
     | Some r ->
       Alcotest.(check bool) "no span field outside any span" true
         (not (List.mem_assoc "span" r)));
    (match List.rev recs with
     | last :: _ ->
       Alcotest.(check string) "final record is events.stop" "events.stop"
         (ev_name last)
     | [] -> Alcotest.fail "no event records after the header")

let test_events_capture_budget_and_checkpoint () =
  let (), lines =
    with_events (fun () ->
        ignore
          (Obs.Budget.exceeded ~source:"test.ev" ~resource:"nodes" ~limit:1.0
             ~consumed:[ ("nodes", 2.0) ]
             ());
        with_temp_file (fun path ->
            let cp =
              Obs.Checkpoint.create
                ~config:(Obs.Json.Obj [ ("n", Obs.Json.Int 2) ])
                ~total_chunks:3
            in
            let w =
              Obs.Checkpoint.writer ~every_chunks:1000 ~every_s:1e9 ~path cp
            in
            Obs.Checkpoint.note_done w 1 Obs.Json.Null;
            Obs.Checkpoint.flush w))
  in
  let names = List.map (fun l -> ev_name (obj_of_line l)) (List.tl lines) in
  Alcotest.(check bool) "budget.exceeded recorded" true
    (List.mem "budget.exceeded" names);
  Alcotest.(check bool) "checkpoint.snapshot recorded" true
    (List.mem "checkpoint.snapshot" names)

(* the chunk partition of a scan is fixed by (space, chunk size), so the
   multiset of pool lease/done events must not depend on the domain
   count: only timestamps, domains and interleaving may differ *)
let canonical_events path =
  List.tl (read_lines path)
  |> List.filter_map (fun l ->
         let fields = obj_of_line l in
         if ev_name fields = "progress" then None
           (* progress is timer-driven: line count varies run to run *)
         else
           Some
             (Obs.Json.to_string
                (Obs.Json.Obj
                   (List.filter
                      (fun (k, _) ->
                        not (List.mem k [ "ts_s"; "utc"; "dom"; "span" ]))
                      fields))))
  |> List.sort compare

let test_events_jobs_invariant () =
  let run jobs =
    let path = Filename.temp_file "obs_ev_jobs" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Obs.Events.start_file path;
        let r =
          Fun.protect ~finally:Obs.Events.stop (fun () ->
              Busy_beaver.scan ~n:2 ~jobs ~chunk:7 ~sample:(300, 11) ())
        in
        (r.Busy_beaver.best_eta, canonical_events path))
  in
  let eta1, ev1 = run 1 in
  let eta3, ev3 = run 3 in
  Alcotest.(check int) "scan aggregates agree across jobs" eta1 eta3;
  Alcotest.(check bool) "pool chunk events were recorded" true
    (List.exists (fun l -> contains l "pool.lease") ev1);
  Alcotest.(check (list string))
    "events are jobs-invariant modulo timestamps" ev1 ev3

(* -- profiler ------------------------------------------------------------- *)

let test_profile_folded_output () =
  let path = Filename.temp_file "obs_profile" ".folded" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.Profile.start ~interval_s:0.0005 ~path ();
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Obs.Profile.samples () = 0 && Unix.gettimeofday () < deadline do
        Obs.Trace.with_span "prof_outer" (fun () ->
            Obs.Trace.with_span "prof_inner" (fun () -> Unix.sleepf 0.002))
      done;
      let sampled = Obs.Profile.samples () in
      Obs.Profile.stop ();
      Alcotest.(check bool) "sampler observed at least one stack" true
        (sampled > 0);
      let lines = read_lines path in
      Alcotest.(check bool) "folded output is non-empty" true (lines <> []);
      List.iter
        (fun l ->
          match String.rindex_opt l ' ' with
          | None -> Alcotest.failf "malformed folded line: %s" l
          | Some i ->
            Alcotest.(check bool)
              (Printf.sprintf "count parses in %S" l)
              true
              (int_of_string_opt
                 (String.sub l (i + 1) (String.length l - i - 1))
               <> None))
        lines;
      Alcotest.(check bool) "stacks name the test span" true
        (List.exists (fun l -> contains l "prof_outer") lines))

(* -- progress auto mode --------------------------------------------------- *)

let test_progress_auto_respects_tty () =
  let path = Filename.temp_file "obs_progress_auto" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Progress.set_enabled false;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.Progress.set_auto ();
      let out = Out_channel.open_text path in
      Fun.protect
        ~finally:(fun () -> Out_channel.close out)
        (fun () ->
          let t = Obs.Progress.create ~interval_s:0.0 ~out "auto" in
          for _ = 1 to 5 do
            Obs.Progress.tick t (fun () ->
                Alcotest.fail "thunk forced on a redirected auto reporter")
          done;
          Obs.Progress.finish t (fun () -> "nor the final line");
          Alcotest.(check int) "auto mode is silent on a non-tty channel" 0
            (Obs.Progress.lines t);
          Obs.Progress.set_enabled true;
          let t' = Obs.Progress.create ~interval_s:0.0 ~out "forced" in
          Obs.Progress.tick t' (fun () -> "line");
          Alcotest.(check int) "--progress forces output to the same channel"
            1 (Obs.Progress.lines t')))

let test_progress_records_events_when_redirected () =
  let (), lines =
    with_events (fun () ->
        Obs.Progress.set_auto ();
        let path = Filename.temp_file "obs_progress_ev" ".txt" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            let out = Out_channel.open_text path in
            Fun.protect
              ~finally:(fun () -> Out_channel.close out)
              (fun () ->
                let t = Obs.Progress.create ~interval_s:0.0 ~out "ev" in
                Obs.Progress.tick t (fun () -> "recorded");
                Alcotest.(check int) "still no display lines" 0
                  (Obs.Progress.lines t))))
  in
  let msgs =
    List.filter_map
      (fun l ->
        let fields = obj_of_line l in
        if ev_name fields <> "progress" then None
        else
          match List.assoc_opt "data" fields with
          | Some (Obs.Json.Obj d) ->
            (match List.assoc_opt "msg" d with
             | Some (Obs.Json.String m) -> Some m
             | _ -> None)
          | _ -> None)
      (List.tl lines)
  in
  Alcotest.(check (list string)) "tick recorded as a progress event"
    [ "recorded" ] msgs

(* -- prometheus exposition ------------------------------------------------ *)

let test_prometheus_conformance () =
  let snap =
    [
      ("scan.configs", Obs.Metrics.Counter 42);
      ("pool.queue depth-now", Obs.Metrics.Gauge 1.5);
      ( "verify.latency_s",
        Obs.Metrics.Histogram
          {
            bounds = [| 0.1; 1.0 |];
            counts = [| 2; 3; 1 |];
            sum = 3.25;
            count = 6;
          } );
    ]
  in
  let meta =
    {
      Obs.Run_meta.git_rev = "v1.0-\"quoted\"\\slash";
      hostname = "host\nname";
      ocaml_version = "5.1.1";
      jobs = 3;
      timestamp = "2026-08-07T00:00:00Z";
    }
  in
  let text = Obs.Export.prometheus_of_snapshot ~meta snap in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  List.iter
    (fun fam ->
      Alcotest.(check bool) (fam ^ " has a HELP line") true
        (List.exists
           (fun l -> String.starts_with ~prefix:("# HELP " ^ fam ^ " ") l)
           lines);
      Alcotest.(check bool) (fam ^ " has a TYPE line") true
        (List.exists
           (fun l -> String.starts_with ~prefix:("# TYPE " ^ fam ^ " ") l)
           lines))
    [
      "pp_scan_configs";
      "pp_pool_queue_depth_now";
      "pp_verify_latency_s";
      "pp_build_info";
    ];
  (* every non-comment sample line belongs to a family introduced by
     HELP + TYPE above it *)
  let declared = Hashtbl.create 8 in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | "#" :: "TYPE" :: fam :: _ -> Hashtbl.replace declared fam ()
      | _ when String.starts_with ~prefix:"# HELP " l -> ()
      | name_and_labels :: _ ->
        let fam =
          match String.index_opt name_and_labels '{' with
          | Some i -> String.sub name_and_labels 0 i
          | None -> name_and_labels
        in
        let base f suffix =
          if Filename.check_suffix f suffix then
            String.sub f 0 (String.length f - String.length suffix)
          else f
        in
        let fam = base (base (base fam "_bucket") "_sum") "_count" in
        Alcotest.(check bool)
          (Printf.sprintf "sample %s declared via TYPE" l)
          true (Hashtbl.mem declared fam)
      | [] -> ())
    lines;
  Alcotest.(check bool) "counter sample" true (List.mem "pp_scan_configs 42" lines);
  Alcotest.(check bool) "gauge name is sanitized" true
    (List.exists
       (fun l -> String.starts_with ~prefix:"pp_pool_queue_depth_now " l)
       lines);
  let buckets =
    List.filter_map
      (fun l ->
        if String.starts_with ~prefix:"pp_verify_latency_s_bucket" l then
          match String.split_on_char ' ' l with
          | [ _; n ] -> int_of_string_opt n
          | _ -> None
        else None)
      lines
  in
  Alcotest.(check (list int)) "buckets are cumulative and nondecreasing"
    [ 2; 5; 6 ] buckets;
  Alcotest.(check bool) "+Inf bucket equals _count" true
    (List.mem "pp_verify_latency_s_bucket{le=\"+Inf\"} 6" lines
    && List.mem "pp_verify_latency_s_count 6" lines);
  Alcotest.(check bool) "_sum present" true
    (List.exists
       (fun l -> String.starts_with ~prefix:"pp_verify_latency_s_sum " l)
       lines);
  match List.find_opt (fun l -> String.starts_with ~prefix:"pp_build_info{" l) lines with
  | None -> Alcotest.fail "pp_build_info sample missing"
  | Some build ->
    Alcotest.(check bool) "quotes and backslashes escaped in labels" true
      (contains build "v1.0-\\\"quoted\\\"\\\\slash");
    Alcotest.(check bool) "newline escaped in labels" true
      (contains build "host\\nname")

(* -- trace analytics ------------------------------------------------------ *)

let test_trace_report_golden () =
  match Obs.Trace_stats.load "data/mini_trace.json" with
  | Error e -> Alcotest.failf "mini trace: %s" e
  | Ok report ->
    Alcotest.(check bool) "straggler detected" true
      (List.exists
         (fun g -> g.Obs.Trace_stats.g_straggler)
         report.Obs.Trace_stats.chunk_groups);
    let expected =
      In_channel.with_open_text "data/mini_trace_report.md"
        In_channel.input_all
    in
    Alcotest.(check string) "ppreport trace markdown matches the golden file"
      expected
      (Obs.Trace_stats.to_markdown report)

let test_trace_report_json_schema () =
  match Obs.Trace_stats.load "data/mini_trace.json" with
  | Error e -> Alcotest.failf "mini trace: %s" e
  | Ok report ->
    (match Obs.Trace_stats.to_json report with
     | Obs.Json.Obj fields ->
       Alcotest.(check bool) "schema tag" true
         (List.assoc_opt "schema" fields
          = Some (Obs.Json.String "pptrace-report/v1"));
       (* busy time must equal the self-time sum for a parent-linked
          trace (the acceptance criterion behind `ppreport trace`) *)
       let f name =
         match List.assoc_opt name fields with
         | Some (Obs.Json.Float x) -> x
         | _ -> Alcotest.failf "missing float field %s" name
       in
       let busy = f "busy_s" and self_sum = f "self_sum_s" in
       Alcotest.(check bool) "self times sum to busy time (within 2%)" true
         (Float.abs (busy -. self_sum) <= 0.02 *. busy)
     | _ -> Alcotest.fail "report is not a JSON object")

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          concurrent_counter_prop;
          Alcotest.test_case "disabled mutations are no-ops" `Quick
            test_disabled_mutations_are_noops;
          Alcotest.test_case "registration is idempotent" `Quick
            test_registration_is_idempotent;
          Alcotest.test_case "diff drops quiet metrics" `Quick
            test_diff_drops_quiet_metrics;
          Alcotest.test_case "merge inverts diff" `Quick
            test_merge_inverts_diff;
          Alcotest.test_case "merge adds counters, replaces gauges" `Quick
            test_merge_new_and_mismatched;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "snapshot publishes GC/RSS telemetry" `Quick
            test_snapshot_publishes_process_stats;
          Alcotest.test_case "histogram quantiles (known distribution)" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "quantiles of ensemble.trial_steps" `Quick
            test_quantiles_of_trial_steps;
        ] );
      ( "json",
        [
          json_roundtrip_prop;
          snapshot_roundtrip_prop;
          Alcotest.test_case "committed BENCH_results.json round-trips" `Quick
            test_bench_results_roundtrip;
        ] );
      ( "trace",
        [
          span_nesting_prop;
          span_forest_prop;
          Alcotest.test_case "spans emit on exceptions" `Quick
            test_span_emits_on_exception;
          Alcotest.test_case "trace file is valid JSON" `Quick
            test_trace_file_is_valid_json;
        ] );
      ( "trace_stats",
        [
          Alcotest.test_case "markdown matches the golden report" `Quick
            test_trace_report_golden;
          Alcotest.test_case "JSON report schema and self-time closure" `Quick
            test_trace_report_json_schema;
        ] );
      ( "events",
        [
          Alcotest.test_case "JSONL format and correlation ids" `Quick
            test_events_format;
          Alcotest.test_case "budget and checkpoint events land" `Quick
            test_events_capture_budget_and_checkpoint;
          Alcotest.test_case "jobs-invariant modulo timestamps" `Slow
            test_events_jobs_invariant;
        ] );
      ( "profile",
        [
          Alcotest.test_case "folded stacks" `Quick test_profile_folded_output;
        ] );
      ( "progress",
        [
          Alcotest.test_case "throttling" `Quick test_progress_throttles;
          Alcotest.test_case "disabled is silent" `Quick
            test_progress_disabled_is_silent;
          Alcotest.test_case "auto mode respects the tty" `Quick
            test_progress_auto_respects_tty;
          Alcotest.test_case "redirected runs record progress events" `Quick
            test_progress_records_events_when_redirected;
        ] );
      ( "export",
        [
          Alcotest.test_case "prometheus exposition conformance" `Quick
            test_prometheus_conformance;
        ] );
      ( "budget",
        [
          Alcotest.test_case "Exceeded carries stats" `Quick
            test_budget_exceeded_carries_stats;
          Alcotest.test_case "deadlines" `Quick test_budget_deadline;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "JSON round-trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "save/load round-trip" `Quick
            test_checkpoint_save_load;
          Alcotest.test_case "rejects garbage" `Quick
            test_checkpoint_rejects_garbage;
          Alcotest.test_case "writer flush" `Quick test_checkpoint_writer_flush;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "install is idempotent, graceful nests" `Quick
            test_shutdown_install_idempotent;
        ] );
      ("clock", [ Alcotest.test_case "monotone" `Quick test_clock_monotone ]);
      ( "determinism",
        [
          Alcotest.test_case "ensemble aggregates unchanged under metrics"
            `Quick test_metrics_do_not_perturb_ensemble;
        ] );
    ]
