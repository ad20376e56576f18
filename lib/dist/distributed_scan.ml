(* A worker's entire scan comes from the coordinator's config bytes —
   see Worker. *)
let worker_runner config =
  match Busy_beaver.plan_of_config config with
  | Ok plan ->
    Ok
      {
        Worker.scan = Busy_beaver.scan_chunk plan;
        range = Some (Busy_beaver.plan_chunk_range plan);
      }
  | Error e -> Error e

(* Writing to a worker that died between select rounds must surface as
   EPIPE (handled), not kill the process. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

type outcome = {
  result : Busy_beaver.scan_result;
  stats : Coordinator.stats;
}

let m_restarts = Obs.Metrics.counter "coordinator.restarts"

(* Same open-or-resume logic as Busy_beaver.scan, plus the adoption
   step: bump the epoch and persist it *before* any grant goes out, so
   grants of a previous (crashed) coordinator can never be mistaken for
   this run's. Every recovery step leaves an events/metrics trail:
   [coordinator.restarts] counts prior lives (epoch - 1 on adoption)
   and a [dist.recovery] record says what was rehydrated. *)
let open_ledger ~path ~resume ~config_json ~num_chunks =
  let c, resumed =
    if resume && Sys.file_exists path then begin
      match Obs.Checkpoint.load path with
      | Error msg ->
        invalid_arg
          (Printf.sprintf "Distributed_scan: cannot resume from %s: %s" path msg)
      | Ok c ->
        if
          c.Obs.Checkpoint.config_hash <> Obs.Checkpoint.hash_config config_json
          || c.Obs.Checkpoint.total_chunks <> num_chunks
        then
          raise
            (Obs.Checkpoint.Mismatch
               {
                 path;
                 diff =
                   Obs.Checkpoint.config_diff ~expected:config_json
                     ~found:c.Obs.Checkpoint.config;
               });
        (c, true)
    end
    else (Obs.Checkpoint.create ~config:config_json ~total_chunks:num_chunks, false)
  in
  let epoch = Obs.Checkpoint.bump_epoch c in
  (* leases stamped by previous lives are dead letters in the new
     epoch — their holders (if still alive) carry stale grant stamps
     the coordinator will drop anyway. Clear them so the ledger's lease
     table only ever describes the current epoch. *)
  let stale_leases = ref 0 in
  for i = 0 to num_chunks - 1 do
    match Obs.Checkpoint.lease c i with
    | Some { Obs.Checkpoint.lease_epoch; _ } when lease_epoch < epoch ->
      incr stale_leases;
      Obs.Checkpoint.clear_lease c i
    | _ -> ()
  done;
  Obs.Checkpoint.save ~path c;
  if resumed then begin
    Obs.Metrics.add m_restarts (epoch - 1);
    if Obs.Events.enabled () then
      Obs.Events.emit "dist.recovery"
        ~data:
          [
            ("path", Obs.Json.String path);
            ("epoch", Obs.Json.Int epoch);
            ("done_chunks", Obs.Json.Int (Obs.Checkpoint.num_done c));
            ("total_chunks", Obs.Json.Int num_chunks);
            ("stale_leases_cleared", Obs.Json.Int !stale_leases);
          ]
  end;
  c

(* Chaos stream numbering keeps both endpoints of every connection on
   independent Splitmix64 substreams of the same seed: the coordinator
   numbers its streams by accept order (0, 1, 2, ...), forked children
   take 10000+idx, TCP workers 20000+session. *)
let child_chaos ~chaos_net ~idx =
  match chaos_net with
  | None -> None
  | Some spec -> Some (Chaos.create spec ~conn:(10_000 + idx))

let child_main ~idx ~chaos_kill ~chaos_net ~heartbeat_timeout ~fd =
  (* the inherited trace/events/export channels (buffers included)
     belong to the parent — recording from here would interleave
     garbage into its files. Detach, don't stop: stop would close the
     parent's fds. The worker's own telemetry restarts from the
     Welcome when the coordinator asks for it. *)
  Obs.Trace.detach ();
  Obs.Events.detach ();
  Obs.Export.detach ();
  let kills =
    match chaos_kill with Some (w, k) when w = idx -> Some k | _ -> None
  in
  let count = ref 0 in
  let on_chunk_done _ =
    incr count;
    match kills with
    | Some k when !count >= k -> Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ()
  in
  let name = Printf.sprintf "fork%d-%d" idx (Unix.getpid ()) in
  (* cadence scales with the coordinator's expiry horizon (identical to
     the old fixed 2s/5s at the default 10s timeout): grants are gated
     on beat freshness, so a child must beat well inside the timeout,
     and a lost Welcome must be retried before the scan gives up on
     it *)
  let heartbeat_every = Float.min 2.0 (heartbeat_timeout /. 4.0) in
  let welcome_timeout =
    Float.min 5.0 (Float.max 0.25 (heartbeat_timeout /. 2.0))
  in
  match
    Worker.run ~heartbeat_every ~welcome_timeout
      ?chaos:(child_chaos ~chaos_net ~idx) ~on_chunk_done ~name ~fd
      ~runner:worker_runner ()
  with
  | Ok () -> Unix._exit 0
  | Error e ->
    (* stderr only: the child shares the parent's stdout buffers, and
       [_exit] below is what keeps those from double-flushing *)
    output_string stderr (Printf.sprintf "bbsearch worker %s: %s\n" name e);
    flush stderr;
    Unix._exit 1

let coordinate ?(workers = 0) ?serve ?(heartbeat_timeout = 10.0)
    ?(max_batch = 16) ?checkpoint ?(checkpoint_every_chunks = 64)
    ?(checkpoint_every_s = 30.0) ?(resume = false) ?should_stop ?chaos_kill
    ?chaos_net ?telemetry ~plan () =
  if workers < 0 then invalid_arg "Distributed_scan.coordinate: workers >= 0";
  if workers = 0 && serve = None then
    invalid_arg "Distributed_scan.coordinate: no worker source (workers=0, no serve)";
  ignore_sigpipe ();
  let num_chunks = Busy_beaver.plan_chunks plan in
  let config_json = Busy_beaver.plan_config plan in
  let cp =
    match checkpoint with
    | None -> None
    | Some path ->
      let c = open_ledger ~path ~resume ~config_json ~num_chunks in
      let writer =
        Obs.Checkpoint.writer ~every_chunks:checkpoint_every_chunks
          ~every_s:checkpoint_every_s ~path c
      in
      Some (c, writer)
  in
  let epoch = match cp with Some (c, _) -> Obs.Checkpoint.epoch c | None -> 1 in
  (* per-chunk accumulator slots — the authoritative state; the
     checkpoint mirrors it to disk *)
  let slots = Array.make num_chunks None in
  (match cp with
  | Some (c, _) ->
    for i = 0 to num_chunks - 1 do
      slots.(i) <- Obs.Checkpoint.chunk_state c i
    done
  | None -> ());
  (* socketpairs before any fork, so each child can close every end it
     does not own *)
  let pairs =
    Array.init workers (fun _ ->
        Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let fork_or_explain () =
    try Unix.fork ()
    with Failure msg when workers > 0 ->
      (* OCaml 5 forbids fork once any domain was ever spawned — e.g. a
         prior [Busy_beaver.scan ~jobs:(>1)] in this same process *)
      invalid_arg
        (Printf.sprintf
           "Distributed_scan: cannot fork workers (%s); a domain was \
            already spawned in this process (e.g. an earlier --jobs \
            scan) — fork first, or use --serve with external \
            --connect workers"
           msg)
  in
  let pids =
    Array.mapi
      (fun i (_parent_fd, child_fd) ->
        match fork_or_explain () with
        | 0 ->
          (* the parent has already closed the child ends of earlier
             workers, so some of these fds are gone — EBADF is fine *)
          let close_quiet fd =
            try Unix.close fd with Unix.Unix_error _ -> ()
          in
          Array.iteri
            (fun j (p, c) ->
              close_quiet p;
              if j <> i then close_quiet c)
            pairs;
          (match serve with Some fd -> close_quiet fd | None -> ());
          child_main ~idx:i ~chaos_kill ~chaos_net ~heartbeat_timeout
            ~fd:child_fd
        | pid ->
          Unix.close child_fd;
          pid)
      pairs
  in
  let on_result ~chunk state =
    slots.(chunk) <- Some state;
    match cp with
    | None -> ()
    | Some (_, w) -> Obs.Checkpoint.note_done w chunk state
  in
  let on_grant ~worker ~lo ~hi =
    match cp with
    | None -> ()
    | Some (c, _) ->
      for i = lo to hi - 1 do
        Obs.Checkpoint.set_lease c i ~holder:worker
      done
  in
  let on_reclaim ~worker:_ ~chunks =
    match cp with
    | None -> ()
    | Some (c, _) -> List.iter (fun i -> Obs.Checkpoint.clear_lease c i) chunks
  in
  let stop_requested () =
    Obs.Shutdown.requested ()
    || (match should_stop with Some f -> f () | None -> false)
  in
  let stats =
    Fun.protect
      ~finally:(fun () ->
        (* reap every forked child — the chaos-killed one included —
           and land the final snapshot *)
        Array.iter
          (fun pid ->
            try ignore (Unix.waitpid [] pid)
            with Unix.Unix_error _ -> ())
          pids;
        match cp with
        | None -> ()
        | Some (_, w) ->
          (try Obs.Checkpoint.flush w
           with Sys_error msg ->
             Printf.eprintf "bbsearch: checkpoint write failed: %s\n%!" msg))
      (fun () ->
        Obs.Export.set_identity [ ("role", "coordinator") ];
        Obs.Trace.with_span "bbsearch.coordinate" ~cat:"dist"
          ~args:
            [
              ("workers", string_of_int workers);
              ("chunks", string_of_int num_chunks);
            ]
          (fun () ->
            Coordinator.run ?accept:serve
              ~fds:(Array.to_list (Array.map fst pairs))
              ~heartbeat_timeout ~max_batch ?chaos:chaos_net
              ~should_stop:stop_requested
              ~on_grant ~on_reclaim ?telemetry ~config:config_json
              ~config_hash:(Obs.Checkpoint.hash_config config_json)
              ~epoch ~total_chunks:num_chunks
              ~completed:(fun i -> slots.(i) <> None)
              ~on_result ()))
  in
  let result =
    Busy_beaver.result_of_chunks
      ~interrupted:stats.Coordinator.interrupted plan slots
  in
  { result; stats }

let resolve host port =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
        invalid_arg (Printf.sprintf "Distributed_scan: cannot resolve %s" host)
      | { Unix.h_addr_list; _ } -> h_addr_list.(0)
      | exception Not_found ->
        invalid_arg (Printf.sprintf "Distributed_scan: cannot resolve %s" host))
  in
  Unix.ADDR_INET (addr, port)

let listen ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (resolve host port);
  Unix.listen fd 16;
  fd

let connect_worker ?name ?heartbeat_every ?chaos_kill ?chaos_net
    ?(reconnect = true) ?max_attempts ?backoff_base ~host ~port () =
  ignore_sigpipe ();
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "%s-%d" (Unix.gethostname ()) (Unix.getpid ())
  in
  Obs.Export.set_identity [ ("role", "worker"); ("worker", name) ];
  let count = ref 0 in
  let on_chunk_done _ =
    incr count;
    match chaos_kill with
    | Some k when !count >= k -> Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ()
  in
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd (resolve host port) with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s:%d: %s" host port
           (Unix.error_message e))
    | () -> Ok fd
  in
  if reconnect then
    (* the session layer owns the fds; the chunk cache rides across
       sessions so a Result lost to a dying connection is resent, not
       recomputed, once the redial's rejoin handshake lands *)
    Worker.run_reconnect ?heartbeat_every ?max_attempts ?backoff_base
      ~jitter_seed:(Hashtbl.hash (host, port))
      ?chaos_for:
        (match chaos_net with
         | None -> None
         | Some spec ->
           Some (fun session -> Some (Chaos.create spec ~conn:(20_000 + session))))
      ~on_chunk_done ~name ~connect ~runner:worker_runner ()
  else
    match connect () with
    | Error e -> Error e
    | Ok fd ->
      let chaos =
        match chaos_net with
        | None -> None
        | Some spec -> Some (Chaos.create spec ~conn:20_000)
      in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Worker.run ?heartbeat_every ?chaos ~on_chunk_done ~name ~fd
            ~runner:worker_runner ())
