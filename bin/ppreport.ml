(* ppreport: the run-history, regression and trace-analytics toolkit
   over the JSON the bench harness and the obs layer emit (ppbench/v2,
   Chrome trace-event files).

     ppreport diff BENCH_results.json bench-new.json
     ppreport history --ledger bench/history --markdown
     ppreport check --baseline BENCH_results.json bench-new.json
     ppreport check --history-median bench/history --sections E2,E10 new.json
     ppreport trace bb-trace.json --json trace-report.json *)

let load_run path =
  match Obs.History.load_file path with
  | Ok run -> run
  | Error e ->
    Printf.eprintf "ppreport: cannot load %s: %s\n" path e;
    exit 2

let restrict sections (run : Obs.History.run) =
  match sections with
  | None -> run
  | Some wanted ->
    {
      run with
      Obs.History.sections =
        List.filter (fun (id, _) -> List.mem id wanted) run.Obs.History.sections;
    }

(* ---------------------------------------------------------------- diff *)

let diff_run sections old_path new_path () =
  let baseline = restrict sections (load_run old_path) in
  let candidate = restrict sections (load_run new_path) in
  print_string (Obs.Regress.render_diff ~baseline ~candidate);
  0

(* ------------------------------------------------------------- history *)

let warn_skipped ledger skipped =
  if skipped > 0 then
    Printf.eprintf
      "ppreport: warning: skipped %d malformed line%s in %s (crash-truncated \
       appends?)\n"
      skipped
      (if skipped = 1 then "" else "s")
      (Obs.History.ledger_file ledger)

let history_run ledger markdown sections () =
  match Obs.History.load_ledger ledger with
  | Error e ->
    Printf.eprintf "ppreport: cannot load ledger %s: %s\n"
      (Obs.History.ledger_file ledger) e;
    2
  | Ok ([], skipped) ->
    warn_skipped ledger skipped;
    Printf.eprintf "ppreport: ledger %s is empty\n"
      (Obs.History.ledger_file ledger);
    2
  | Ok (runs, skipped) ->
    warn_skipped ledger skipped;
    print_string (Obs.History.render_history ~markdown ?sections runs);
    0

(* --------------------------------------------------------------- check *)

let check_run baseline_path ledger wall_tol gauge_tol ignores no_default_ignores
    sections candidate_path () =
  let baseline =
    match (baseline_path, ledger) with
    | Some path, None -> load_run path
    | None, Some dir ->
      (match Obs.History.load_ledger dir with
       | Error e ->
         Printf.eprintf "ppreport: cannot load ledger %s: %s\n"
           (Obs.History.ledger_file dir) e;
         exit 2
       | Ok (runs, skipped) ->
         warn_skipped dir skipped;
         (match Obs.History.median_run runs with
          | Ok run -> run
          | Error e ->
            Printf.eprintf "ppreport: %s\n" e;
            exit 2))
    | _ ->
      Printf.eprintf
        "ppreport: check needs exactly one of --baseline FILE or \
         --history-median DIR\n";
      exit 2
  in
  let candidate = load_run candidate_path in
  let default = Obs.Regress.default_config in
  let config =
    {
      Obs.Regress.wall_tol =
        { default.Obs.Regress.wall_tol with rel = wall_tol };
      gauge_tol = { default.Obs.Regress.gauge_tol with rel = gauge_tol };
      ignore_prefixes =
        (if no_default_ignores then ignores
         else Obs.Regress.default_ignore_prefixes @ ignores);
      ignore_infixes =
        (if no_default_ignores then [] else Obs.Regress.default_ignore_infixes);
      sections;
    }
  in
  let verdict = Obs.Regress.check ~config ~baseline ~candidate () in
  print_string (Obs.Regress.render_verdict verdict);
  if Obs.Regress.failed verdict then 1 else 0

(* --------------------------------------------------------------- trace *)

let trace_run trace_path json_out () =
  match Obs.Trace_stats.load trace_path with
  | Error e ->
    Printf.eprintf "ppreport: cannot analyse %s: %s\n" trace_path e;
    2
  | Ok report ->
    print_string (Obs.Trace_stats.to_markdown report);
    (match json_out with
     | None -> ()
     | Some path ->
       Out_channel.with_open_bin path (fun oc ->
           Out_channel.output_string oc
             (Obs.Json.to_string (Obs.Trace_stats.to_json report));
           Out_channel.output_char oc '\n'));
    0

(* --------------------------------------------------------------- fleet *)

let fleet_run events_path json_out () =
  match Obs.Fleet_stats.load events_path with
  | Error e ->
    Printf.eprintf "ppreport: cannot analyse %s: %s\n" events_path e;
    2
  | Ok report ->
    print_string (Obs.Fleet_stats.to_markdown report);
    (match json_out with
     | None -> ()
     | Some path ->
       Out_channel.with_open_bin path (fun oc ->
           Out_channel.output_string oc
             (Obs.Json.to_string (Obs.Fleet_stats.to_json report));
           Out_channel.output_char oc '\n'));
    0

(* ----------------------------------------------------------------- CLI *)

open Cmdliner

let sections_arg =
  Arg.(value
       & opt (some (list ~sep:',' string)) None
       & info [ "sections" ] ~docv:"A,B,..."
           ~doc:"Restrict to these experiment sections (comma-separated).")

let diff_cmd =
  let old_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BASELINE")
  in
  let new_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"CANDIDATE")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Show every wall-clock, counter, gauge and histogram drift \
             between two bench runs (no tolerances; informational).")
    Term.(const diff_run $ sections_arg $ old_arg $ new_arg $ Obs_cli.term)

let history_cmd =
  let ledger_arg =
    Arg.(value & opt string "bench/history"
         & info [ "ledger" ] ~docv:"DIR"
             ~doc:"Ledger directory holding runs.jsonl.")
  in
  let markdown_arg =
    Arg.(value & flag
         & info [ "markdown" ]
             ~doc:"Emit a markdown table (for EXPERIMENTS.md) instead of the \
                   plain-text series view.")
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:"Per-section wall-clock and counter series across the ledger, \
             with sparklines; drifting counters are called out.")
    Term.(const history_run $ ledger_arg $ markdown_arg $ sections_arg
          $ Obs_cli.term)

let check_cmd =
  let baseline_arg =
    Arg.(value & opt (some file) None
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Baseline bench JSON to gate against.")
  in
  let ledger_arg =
    Arg.(value & opt (some string) None
         & info [ "history-median" ] ~docv:"DIR"
             ~doc:"Gate against the per-metric median of the ledger in $(docv) \
                   instead of a single baseline file.")
  in
  let wall_tol_arg =
    Arg.(value & opt float Obs.Regress.default_config.Obs.Regress.wall_tol.Obs.Regress.rel
         & info [ "wall-tol" ] ~docv:"REL"
             ~doc:"Relative tolerance for wall-clock, timings and *_s gauges \
                   (|a-b| <= REL*max(|a|,|b|) + abs slack).")
  in
  let gauge_tol_arg =
    Arg.(value & opt float Obs.Regress.default_config.Obs.Regress.gauge_tol.Obs.Regress.rel
         & info [ "gauge-tol" ] ~docv:"REL"
             ~doc:"Relative tolerance for other gauges and histogram sums.")
  in
  let ignore_arg =
    Arg.(value & opt_all string []
         & info [ "ignore" ] ~docv:"PREFIX"
             ~doc:"Skip metrics whose name starts with $(docv) (repeatable; \
                   adds to the defaults gc., process. and the per-domain \
                   cells).")
  in
  let no_default_ignores_arg =
    Arg.(value & flag
         & info [ "no-default-ignores" ]
             ~doc:"Also gate the environment-shaped metrics skipped by \
                   default (gc.*, process.*, *.domainN.*).")
  in
  let candidate_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CANDIDATE")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Regression gate: deterministic counters must match the baseline \
             exactly; wall-clock and gauges get the tolerance noise model. \
             Exits 1 on regression, naming the section and metric.")
    Term.(const check_run $ baseline_arg $ ledger_arg $ wall_tol_arg
          $ gauge_tol_arg $ ignore_arg $ no_default_ignores_arg $ sections_arg
          $ candidate_arg $ Obs_cli.term)

let trace_cmd =
  let trace_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the machine-readable report \
                   (pptrace-report/v1) to $(docv).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Analyse a recorded --trace file: per-phase self/total time, \
             per-domain utilization timelines, the critical path through \
             the span forest, and pool chunk straggler detection. Markdown \
             on stdout; --json FILE for the archivable form.")
    Term.(const trace_run $ trace_arg $ json_arg $ Obs_cli.term)

let fleet_cmd =
  let events_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"EVENTS"
         ~doc:"Merged ppevents JSONL written by a telemetry-on coordinator.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the machine-readable report \
                   (ppfleet-report/v1) to $(docv).")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Analyse a merged fleet events log: per-worker utilization \
             timelines, grant-to-completion lease latency distributions, \
             chunk-normalised straggler detection over forwarded \
             worker.chunk records, and the join/loss/reassignment \
             chronology. Markdown on stdout; --json FILE for the \
             archivable form.")
    Term.(const fleet_run $ events_arg $ json_arg $ Obs_cli.term)

let cmd =
  Cmd.group
    (Cmd.info "ppreport"
       ~doc:"Run ledger, diffing, regression gating, trace and fleet \
             analytics for the bench harness and the obs layer")
    [ diff_cmd; history_cmd; check_cmd; trace_cmd; fleet_cmd ]

let () = exit (Cmd.eval' cmd)
