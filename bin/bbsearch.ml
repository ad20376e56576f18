(* bbsearch: enumerate (or sample) small deterministic leaderless
   protocols and report apparent busy-beaver values (Definition 1).

     bbsearch -n 2
     bbsearch -n 3 --jobs 4
     bbsearch -n 3 --sample 50000 --seed 9
     bbsearch -n 3 --workers 4 --checkpoint scan.ckpt        # fork workers
     bbsearch -n 3 --serve 7171 --checkpoint scan.ckpt       # TCP coordinator
     bbsearch --connect host:7171                            # TCP worker *)

let print_result n max_input print_best (r : Busy_beaver.scan_result) =
  Printf.printf
    "scanned %d protocols with %d states (space: %d)\n"
    r.Busy_beaver.num_protocols n
    (Busy_beaver.num_deterministic_protocols n);
  Printf.printf "threshold protocols: %d, reject-all: %d\n" r.Busy_beaver.num_threshold
    r.Busy_beaver.num_reject_all;
  if r.Busy_beaver.num_aborted > 0 then
    Printf.printf "verdict unknown (budget): %d\n" r.Busy_beaver.num_aborted;
  if r.Busy_beaver.task_errors > 0 then
    Printf.printf "chunk failures tolerated: %d\n" r.Busy_beaver.task_errors;
  Printf.printf "apparent BB(%d) = %d (inputs up to %d)\n" n r.Busy_beaver.best_eta
    max_input;
  List.iter
    (fun (eta, count) -> Printf.printf "  eta=%-4d %d protocols\n" eta count)
    r.Busy_beaver.histogram;
  match (print_best, r.Busy_beaver.best) with
  | true, Some p ->
    print_newline ();
    print_string (Protocol_syntax.to_string p)
  | _ -> ()

(* --connect mode: serve chunks for a remote coordinator; everything
   about the scan (including n) comes over the wire, local scan flags
   are ignored *)
(* the spec is logged on stderr and in the event log so a failing chaos
   run can be replayed exactly: same spec, same fault schedule *)
let log_chaos_net = function
  | None -> ()
  | Some spec ->
    let s = Dist.Chaos.spec_to_string spec in
    Printf.eprintf "bbsearch: chaos-net active: replay with --chaos-net %s\n%!" s;
    if Obs.Events.enabled () then
      Obs.Events.emit ~data:[ ("spec", Obs.Json.String s) ] "chaos.config"

let run_worker (host, port) chaos_kill chaos_net heartbeat_timeout =
  log_chaos_net chaos_net;
  (* the worker's own cadence tracks the coordinator's liveness window *)
  let heartbeat_every =
    Option.map (fun t -> Float.min 2.0 (t /. 4.0)) heartbeat_timeout
  in
  match
    Dist.Distributed_scan.connect_worker ?heartbeat_every ?chaos_kill ?chaos_net
      ~host ~port ()
  with
  | Ok () -> 0
  | Error e ->
    Printf.eprintf "bbsearch: worker: %s\n" e;
    1

let run n max_input sample seed jobs chunk schedule no_prune no_packed
    eta_budget checkpoint ckpt_chunks ckpt_secs resume on_error print_best
    workers serve connect chaos_kill chaos_worker chaos_net heartbeat_timeout
    () =
  match connect with
  | Some hp -> run_worker hp chaos_kill chaos_net heartbeat_timeout
  | None ->
  let sample = Option.map (fun count -> (count, seed)) sample in
  let jobs = if jobs <= 0 then Domain.recommended_domain_count () else jobs in
  let distributed = workers > 0 || serve <> None in
  (* inside the graceful region a SIGINT/SIGTERM only sets the
     cancellation flag: the pool (or the coordinator loop) drains, the
     checkpoint flushes, and we exit below with the conventional
     128+signum code *)
  let r =
    try
      Obs.Shutdown.with_graceful (fun () ->
          if distributed then begin
            (* under `Guided the partition is shaped by the worker
               count; single-process --jobs plays no other role here *)
            let pjobs = if workers > 0 then workers else jobs in
            let plan =
              Busy_beaver.plan ?sample ~jobs:pjobs ~chunk ~schedule
                ~prune:(not no_prune) ~packed:(not no_packed)
                ?eta_budget_s:eta_budget ~max_input ~n ()
            in
            let serve_fd =
              Option.map (fun port -> Dist.Distributed_scan.listen ~port ()) serve
            in
            let chaos =
              Option.map (fun k -> (chaos_worker, k)) chaos_kill
            in
            log_chaos_net chaos_net;
            let o =
              Fun.protect
                ~finally:(fun () ->
                  match serve_fd with
                  | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
                  | None -> ())
                (fun () ->
                  Dist.Distributed_scan.coordinate ~workers ?serve:serve_fd
                    ?heartbeat_timeout ?checkpoint
                    ~checkpoint_every_chunks:ckpt_chunks
                    ~checkpoint_every_s:ckpt_secs ~resume ?chaos_kill:chaos
                    ?chaos_net ~plan ())
            in
            let s = o.Dist.Distributed_scan.stats in
            (* stderr, so the stdout report stays byte-identical to a
               single-process run; CI greps "workers seen, N lost", so
               new fields only ever append *)
            Printf.eprintf
              "bbsearch: distributed: %d workers seen, %d lost, %d chunks \
               scanned, %d reassigned, %d stale dropped, %d rejoined, %d \
               corrupt frames\n%!"
              s.Dist.Coordinator.workers_seen s.Dist.Coordinator.workers_lost
              s.Dist.Coordinator.chunks_done s.Dist.Coordinator.reassigned
              s.Dist.Coordinator.stale_dropped s.Dist.Coordinator.rejoins
              s.Dist.Coordinator.corrupt_frames;
            o.Dist.Distributed_scan.result
          end
          else
            Busy_beaver.scan ?sample ~jobs ~chunk ~schedule
              ~prune:(not no_prune) ~packed:(not no_packed)
              ?eta_budget_s:eta_budget ?checkpoint
              ~checkpoint_every_chunks:ckpt_chunks ~checkpoint_every_s:ckpt_secs
              ~resume ~on_task_error:on_error ~max_input ~n ())
    with
    | Obs.Checkpoint.Mismatch { path; diff } ->
      (* which flag changed, not just that two hashes differ *)
      prerr_endline (Obs.Checkpoint.mismatch_message ~path diff);
      exit 1
    | Invalid_argument msg ->
      prerr_endline msg;
      exit 1
  in
  if r.Busy_beaver.interrupted then begin
    (match (Obs.Shutdown.signal_name (), checkpoint) with
     | Some s, Some path ->
       Printf.eprintf
         "bbsearch: SIG%s after %d/%d chunks; checkpoint saved to %s (rerun \
          with --resume)\n"
         s r.Busy_beaver.completed_chunks r.Busy_beaver.total_chunks path
     | Some s, None ->
       Printf.eprintf
         "bbsearch: SIG%s after %d/%d chunks; no --checkpoint, progress \
          discarded\n"
         s r.Busy_beaver.completed_chunks r.Busy_beaver.total_chunks
     | None, _ ->
       Printf.eprintf "bbsearch: interrupted after %d/%d chunks\n"
         r.Busy_beaver.completed_chunks r.Busy_beaver.total_chunks);
    flush stderr;
    Obs.Shutdown.exit_if_requested ();
    (* interrupted by a non-signal cancellation: still no results *)
    exit 1
  end;
  print_result n max_input print_best r;
  0

open Cmdliner

let n_arg = Arg.(value & opt int 2 & info [ "n" ] ~doc:"Number of states (1-4).")

let max_input_arg =
  Arg.(value & opt int 12 & info [ "max-input" ] ~doc:"Threshold certification cutoff.")

let sample_arg =
  Arg.(value & opt (some int) None & info [ "sample" ]
         ~doc:"Scan a uniform random sample instead of the full space.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Sampling seed.")

let jobs_arg =
  Arg.(value & opt int 0 & info [ "j"; "jobs" ]
         ~doc:"Domains to shard the scan across (0 = one per recommended \
               core). Aggregates are byte-identical for any value; only \
               wall-clock varies.")

let chunk_arg =
  Arg.(value & opt int 1024 & info [ "chunk" ]
         ~doc:"Codes per scheduling chunk. Any value yields the same \
               result; smaller chunks balance better, larger ones have \
               less overhead.")

let schedule_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "fixed" -> Ok `Fixed
    | "guided" -> Ok `Guided
    | _ -> Error (`Msg "expected fixed or guided")
  in
  let print fmt (s : Pool.schedule) =
    Format.pp_print_string fmt
      (match s with `Fixed -> "fixed" | `Guided -> "guided")
  in
  Arg.conv (parse, print)

let schedule_arg =
  Arg.(value & opt schedule_conv `Fixed & info [ "schedule" ] ~docv:"KIND"
         ~doc:"Chunk size schedule: $(b,fixed) (every chunk --chunk codes, \
               the default) or $(b,guided) (sizes descend from --chunk to \
               1, cutting the straggler tail; the chunk partition — and so \
               the checkpoint fingerprint — then depends on the worker \
               count). Aggregates are byte-identical either way.")

let no_prune_arg =
  Arg.(value & flag & info [ "no-prune" ]
         ~doc:"Disable symmetry pruning (scan every code instead of one \
               canonical representative per state-relabelling orbit). \
               The aggregate result is identical either way.")

let no_packed_arg =
  Arg.(value & flag & info [ "no-packed" ]
         ~doc:"Use the reference multiset configuration graphs instead \
               of the packed-int fast path.")

let eta_budget_arg =
  Arg.(value & opt (some float) None & info [ "eta-budget" ] ~docv:"S"
         ~doc:"Wall-clock budget in seconds for verifying any single \
               protocol; over-budget protocols are counted as unknown \
               instead of aborting the scan. Machine-dependent — leave \
               off when byte-identical reruns matter.")

let checkpoint_arg =
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
         ~doc:"Periodically snapshot completed chunks to $(docv) \
               (atomic tmp+rename), and flush a final snapshot on \
               SIGINT/SIGTERM or crash. In distributed mode this is the \
               shared ledger: it also records the live lease table and \
               the coordinator epoch.")

let ckpt_chunks_arg =
  Arg.(value & opt int 64 & info [ "checkpoint-every-chunks" ] ~docv:"N"
         ~doc:"Snapshot after every $(docv) completed chunks.")

let ckpt_secs_arg =
  Arg.(value & opt float 30.0 & info [ "checkpoint-every" ] ~docv:"S"
         ~doc:"Snapshot at least every $(docv) seconds.")

let resume_arg =
  Arg.(value & flag & info [ "resume" ]
         ~doc:"Resume from the --checkpoint file if it exists: completed \
               chunks are skipped and the finished aggregate is \
               byte-identical to an uninterrupted run.")

let on_error_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "fail" -> Ok `Fail
    | "skip" -> Ok `Skip
    | s when String.length s > 6 && String.sub s 0 6 = "retry:" ->
      (match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
       | Some n when n >= 0 -> Ok (`Retry n)
       | _ -> Error (`Msg "retry:N requires a non-negative integer N"))
    | _ -> Error (`Msg "expected fail, skip or retry:N")
  in
  let print fmt (p : Pool.error_policy) =
    Format.pp_print_string fmt
      (match p with
       | `Fail -> "fail"
       | `Skip -> "skip"
       | `Retry n -> Printf.sprintf "retry:%d" n)
  in
  Arg.conv (parse, print)

let on_error_arg =
  Arg.(value & opt on_error_conv `Fail & info [ "on-error" ] ~docv:"POLICY"
         ~doc:"What to do when a chunk raises: $(b,fail) (cancel and \
               re-raise, the default), $(b,skip) (drop the chunk, keep \
               scanning) or $(b,retry:N) (re-run up to N times, then \
               skip).")

let best_arg =
  Arg.(value & flag & info [ "print-best" ] ~doc:"Print the best protocol found.")

let workers_arg =
  Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N"
         ~doc:"Distributed mode: fork $(docv) local worker processes and \
               coordinate them over socketpairs. A worker that dies (even \
               SIGKILL) has its leased chunks reassigned; the final report \
               is byte-identical to a single-process run.")

let serve_arg =
  Arg.(value & opt (some int) None & info [ "serve" ] ~docv:"PORT"
         ~doc:"Distributed mode: listen on 127.0.0.1:$(docv) and \
               coordinate workers that join with $(b,--connect). May be \
               combined with $(b,--workers).")

let host_port_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | Some i ->
      let host = String.sub s 0 i in
      (match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
       | Some port when port > 0 && host <> "" -> Ok (host, port)
       | _ -> Error (`Msg "expected HOST:PORT"))
    | None -> Error (`Msg "expected HOST:PORT")
  in
  let print fmt (h, p) = Format.fprintf fmt "%s:%d" h p in
  Arg.conv (parse, print)

let connect_arg =
  Arg.(value & opt (some host_port_conv) None & info [ "connect" ]
         ~docv:"HOST:PORT"
         ~doc:"Worker mode: join the coordinator at $(docv) and serve \
               chunks until it shuts the scan down. The entire scan \
               configuration comes from the coordinator; local scan flags \
               are ignored.")

(* fault-injection hooks for tests and CI — deliberately undocumented
   in the manpage *)
let chaos_kill_arg =
  Arg.(value & opt (some int) None
       & info [ "chaos-kill" ] ~docv:"K" ~docs:Manpage.s_none
           ~doc:"Kill one worker with SIGKILL after it completes $(docv) \
                 chunks (fault-injection test hook).")

let chaos_worker_arg =
  Arg.(value & opt int 0
       & info [ "chaos-worker" ] ~docv:"W" ~docs:Manpage.s_none
           ~doc:"Which forked worker index $(b,--chaos-kill) applies to.")

let chaos_net_conv =
  let parse s =
    match Dist.Chaos.parse_spec s with
    | Ok spec -> Ok spec
    | Error e -> Error (`Msg e)
  in
  let print fmt spec = Format.pp_print_string fmt (Dist.Chaos.spec_to_string spec) in
  Arg.conv (parse, print)

let chaos_net_arg =
  Arg.(value & opt (some chaos_net_conv) None
       & info [ "chaos-net" ] ~docv:"PROFILE[:SEED]" ~docs:Manpage.s_none
           ~doc:"Deterministic transport fault injection: drop, duplicate, \
                 delay, truncate and bit-flip frames per $(docv) \
                 (none|lossy|corrupt|wild, seed defaults to 1). The same \
                 spec replays the same fault schedule; the merged scan \
                 result stays byte-identical regardless.")

let heartbeat_timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "heartbeat-timeout" ] ~docv:"SECONDS"
           ~doc:"Distributed liveness window (default 10): a lease with no \
                 progress for $(docv) is reclaimed, and worker cadences \
                 (heartbeats, Welcome retries) scale down with it. Lower it \
                 to recover faster from injected faults; raise it on slow \
                 links.")

let cmd =
  Cmd.v (Cmd.info "bbsearch" ~doc:"Busy-beaver search over small protocols")
    Term.(
      const run $ n_arg $ max_input_arg $ sample_arg $ seed_arg $ jobs_arg
      $ chunk_arg $ schedule_arg $ no_prune_arg $ no_packed_arg
      $ eta_budget_arg $ checkpoint_arg $ ckpt_chunks_arg $ ckpt_secs_arg
      $ resume_arg $ on_error_arg $ best_arg $ workers_arg $ serve_arg
      $ connect_arg $ chaos_kill_arg $ chaos_worker_arg $ chaos_net_arg
      $ heartbeat_timeout_arg $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
