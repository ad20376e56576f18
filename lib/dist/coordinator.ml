type stats = {
  chunks_done : int;
  duplicates : int;
  stale_dropped : int;
  reassigned : int;
  workers_seen : int;
  workers_lost : int;
  rejoins : int;
  corrupt_frames : int;
  events_forwarded : int;
  interrupted : bool;
  fleet : Telemetry.summary list;
}

type conn = {
  rd : Wire.reader;
  chaos : Chaos.t option;
  mutable name : string option;  (** set by the worker's [Hello] *)
  mutable corrupt_seen : int;  (** reader corrupt count already tallied *)
}

let m_done = Obs.Metrics.counter "dist.chunks_done"
let m_dup = Obs.Metrics.counter "dist.duplicates"
let m_stale = Obs.Metrics.counter "dist.stale_dropped"
let m_reassigned = Obs.Metrics.counter "dist.reassigned"
let m_lost = Obs.Metrics.counter "dist.workers_lost"
let m_rejoin = Obs.Metrics.counter "dist.rejoins"
let m_expired = Obs.Metrics.counter "dist.lease_expired"
let m_events_fwd = Obs.Metrics.counter "dist.events_forwarded"
let g_workers = Obs.Metrics.gauge "dist.workers"

let now_s () =
  (* every liveness/lease timestamp in this loop comes from the
     monotonic clock and only ever feeds interval comparisons — a
     wall-clock (NTP) step can never mass-expire healthy leases *)
  Obs.Clock.ns_to_s (Obs.Clock.now_ns ())

let run ?accept ?(fds = []) ?(heartbeat_timeout = 10.0) ?(max_batch = 16)
    ?chaos ?(should_stop = fun () -> false)
    ?(on_grant = fun ~worker:_ ~lo:_ ~hi:_ -> ())
    ?(on_reclaim = fun ~worker:_ ~chunks:_ -> ()) ?telemetry ~config
    ~config_hash ~epoch ~total_chunks ~completed ~on_result () =
  let telemetry =
    match telemetry with
    | Some b -> b
    | None ->
        (* any observability sink being live is the signal that someone
           will look at the fleet view *)
        Obs.Metrics.enabled () || Obs.Events.enabled () || Obs.Export.active ()
  in
  let lease = Lease.create ~max_batch ~total:total_chunks ~completed () in
  let reg = Telemetry.create () in
  let next_conn = ref 0 in
  let mk_conn fd =
    let stream =
      match chaos with
      | None -> None
      | Some spec -> Some (Chaos.create spec ~conn:!next_conn)
    in
    incr next_conn;
    { rd = Wire.reader fd; chaos = stream; name = None; corrupt_seen = 0 }
  in
  let conns = ref (List.map mk_conn fds) in
  let chunks_done = ref 0 in
  let duplicates = ref 0 in
  let stale_dropped = ref 0 in
  let reassigned = ref 0 in
  let workers_seen = ref 0 in
  let workers_lost = ref 0 in
  let rejoins = ref 0 in
  let corrupt_frames = ref 0 in
  let events_forwarded = ref 0 in
  let interrupted = ref false in
  let emit ?severity ev data =
    if Obs.Events.enabled () then Obs.Events.emit ?severity ~data ("dist." ^ ev)
  in
  let send_safe c msg =
    (* a peer that died between select rounds raises EPIPE here; its
       EOF is about to surface on the read side, which owns the
       cleanup — so swallow the write error *)
    try Wire.send ?chaos:c.chaos (Wire.reader_fd c.rd) msg
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) -> ()
  in
  let grant_to c name =
    match Lease.grant lease ~worker:name ~now:(now_s ()) with
    | None -> ()
    | Some (lo_chunk, hi_chunk) ->
        send_safe c (Wire.Grant { lo_chunk; hi_chunk; epoch });
        Telemetry.add_leased reg ~worker:name ~n:(hi_chunk - lo_chunk)
          ~now:(now_s ());
        on_grant ~worker:name ~lo:lo_chunk ~hi:hi_chunk;
        emit "lease"
          [
            ("worker", Obs.Json.String name);
            ("lo_chunk", Obs.Json.Int lo_chunk);
            ("hi_chunk", Obs.Json.Int hi_chunk);
            ("epoch", Obs.Json.Int epoch);
          ]
  in
  (* re-send Grant frames for every lease [name] already holds, one per
     contiguous run — the rejoin/re-Hello reconciliation: the ledger
     says the work is theirs, the worker just never saw (or lost) the
     order. Cached chunks on the worker side come back as instant
     resends. *)
  let regrant_held c name =
    let rec runs = function
      | [] -> []
      | i :: rest ->
          let j = ref i in
          let rest = ref rest in
          let continue = ref true in
          while !continue do
            match !rest with
            | k :: tl when k = !j + 1 ->
                j := k;
                rest := tl
            | _ -> continue := false
          done;
          (i, !j + 1) :: runs !rest
    in
    List.iter
      (fun (lo_chunk, hi_chunk) ->
        send_safe c (Wire.Grant { lo_chunk; hi_chunk; epoch }))
      (runs (Lease.leases_of lease ~worker:name))
  in
  (* top up every named worker that is out of leased chunks — but only
     workers showing a fresh heartbeat: granting to one that has gone
     silent (dead without an EOF yet) would just park chunks on a
     corpse until the next expiry *)
  let feed_idle () =
    List.iter
      (fun c ->
        match c.name with
        | Some name when Lease.leases_of lease ~worker:name = [] -> (
            match Lease.beat_age lease ~worker:name ~now:(now_s ()) with
            | Some age when age <= heartbeat_timeout -> grant_to c name
            | _ -> ())
        | _ -> ())
      !conns
  in
  let close_conn c =
    (try Unix.close (Wire.reader_fd c.rd) with Unix.Unix_error _ -> ());
    conns := List.filter (fun c' -> c' != c) !conns;
    Obs.Metrics.set g_workers (float_of_int (List.length !conns))
  in
  let drop_conn ?(lost = true) c reason =
    (match c.name with
    | Some name ->
        let reclaimed = Lease.fail_worker lease ~worker:name in
        Telemetry.clear_leased reg ~worker:name;
        if lost then begin
          incr workers_lost;
          Obs.Metrics.incr m_lost;
          emit ~severity:Obs.Events.Warn "worker_lost"
            [
              ("worker", Obs.Json.String name);
              ("reason", Obs.Json.String reason);
              ("leased", Obs.Json.Int (List.length reclaimed));
            ]
        end;
        if reclaimed <> [] then begin
          reassigned := !reassigned + List.length reclaimed;
          Obs.Metrics.add m_reassigned (List.length reclaimed);
          on_reclaim ~worker:name ~chunks:reclaimed;
          emit "reassign"
            [
              ("worker", Obs.Json.String name);
              ("chunks", Obs.Json.List (List.map (fun i -> Obs.Json.Int i) reclaimed));
            ]
        end
    | None -> if lost then incr workers_lost);
    close_conn c
  in
  let note_corrupt c =
    let n = Wire.corrupt_count c.rd in
    if n > c.corrupt_seen then begin
      let fresh = n - c.corrupt_seen in
      c.corrupt_seen <- n;
      corrupt_frames := !corrupt_frames + fresh;
      emit ~severity:Obs.Events.Warn "corrupt_frames"
        [
          ( "worker",
            match c.name with
            | Some w -> Obs.Json.String w
            | None -> Obs.Json.Null );
          ("n", Obs.Json.Int fresh);
        ]
    end
  in
  let handle_msg c = function
    | Wire.Hello { worker; pid; host; sent_s } -> (
        let welcome () =
          send_safe c
            (Wire.Welcome { config; config_hash; epoch; total_chunks; telemetry })
        in
        match c.name with
        | Some prev when prev = worker ->
            (* a Hello retry on the live connection: our Welcome (or
               their view of it) was lost — answer again and re-send
               any standing grants; nothing about the ledger changed *)
            Lease.register lease ~worker ~now:(now_s ());
            welcome ();
            regrant_held c worker;
            if Lease.leases_of lease ~worker = [] then grant_to c worker
        | Some prev ->
            raise
              (Wire.Protocol_error
                 (Printf.sprintf "connection renamed itself %S -> %S" prev worker))
        | None ->
            (* same name arriving on a *new* connection: the worker
               redialled — supersede the old socket without touching
               its leases (same identity, work still theirs) *)
            (match List.find_opt (fun c' -> c' != c && c'.name = Some worker) !conns with
            | Some stale ->
                incr rejoins;
                Obs.Metrics.incr m_rejoin;
                emit "worker_rejoin"
                  [
                    ("worker", Obs.Json.String worker);
                    ("pid", Obs.Json.Int pid);
                  ];
                stale.name <- None;
                close_conn stale
            | None -> ());
            c.name <- Some worker;
            incr workers_seen;
            Lease.register lease ~worker ~now:(now_s ());
            Telemetry.join reg ~worker ~host ~pid ~sent_s ~now:(now_s ());
            Obs.Metrics.set g_workers (float_of_int (List.length !conns));
            emit "worker_join"
              [
                ("worker", Obs.Json.String worker);
                ("pid", Obs.Json.Int pid);
                ("host", Obs.Json.String host);
              ];
            welcome ();
            regrant_held c worker;
            if Lease.leases_of lease ~worker = [] then grant_to c worker)
    | Wire.Heartbeat { worker; sent_s; metrics } ->
        Lease.heartbeat lease ~worker ~now:(now_s ());
        Telemetry.heartbeat reg ~worker ~sent_s ~metrics ~now:(now_s ())
    | Wire.Events { worker; origin_s; lines } ->
        let n = List.length lines in
        events_forwarded := !events_forwarded + n;
        Obs.Metrics.add m_events_fwd n;
        Telemetry.note_events reg ~worker ~n ~now:(now_s ());
        if Obs.Events.enabled () then
          List.iter Obs.Events.inject
            (Telemetry.align_events reg ~worker ~origin_s
               ~sink_origin_s:(Obs.Events.origin_s ())
               lines)
    | Wire.Result { chunk; epoch = e; state } ->
        (match c.name with
        | Some worker ->
            Lease.heartbeat lease ~worker ~now:(now_s ());
            Telemetry.seen reg ~worker ~now:(now_s ())
        | None -> ());
        if e <> epoch then begin
          incr stale_dropped;
          Obs.Metrics.incr m_stale;
          emit ~severity:Obs.Events.Warn "stale_result"
            [
              ("chunk", Obs.Json.Int chunk);
              ("result_epoch", Obs.Json.Int e);
              ("epoch", Obs.Json.Int epoch);
            ]
        end
        else if chunk < 0 || chunk >= total_chunks then
          raise (Wire.Protocol_error (Printf.sprintf "chunk %d out of range" chunk))
        else begin
          match Lease.complete lease ~chunk ~now:(now_s ()) with
          | `Duplicate ->
              incr duplicates;
              Obs.Metrics.incr m_dup
          | `Fresh ->
              on_result ~chunk state;
              incr chunks_done;
              Obs.Metrics.incr m_done;
              (match c.name with
              | Some worker -> Telemetry.chunk_done reg ~worker ~now:(now_s ())
              | None -> ());
              emit "chunk_done"
                [
                  ("chunk", Obs.Json.Int chunk);
                  ( "worker",
                    match c.name with
                    | Some w -> Obs.Json.String w
                    | None -> Obs.Json.Null );
                ]
        end;
        (* stream the next batch as soon as this one is finished *)
        (match c.name with
        | Some name when Lease.leases_of lease ~worker:name = [] -> grant_to c name
        | _ -> ())
    | Wire.Welcome _ | Wire.Grant _ | Wire.Shutdown ->
        raise (Wire.Protocol_error "coordinator-bound stream carried a coordinator message")
  in
  let tick_timeout = Stdlib.min 1.0 (heartbeat_timeout /. 2.0) in
  let finished () = Lease.is_complete lease in
  if telemetry then
    Obs.Export.set_fleet (Some (fun () -> Telemetry.fleet reg ~now:(now_s ())));
  Fun.protect
    ~finally:(fun () ->
      (* freeze the final fleet view rather than dropping it: the
         exporter's last write happens after this returns, and a
         post-run [pptop --fleet] should still show who did what *)
      if telemetry then begin
        let final = Telemetry.fleet reg ~now:(now_s ()) in
        Obs.Export.set_fleet (Some (fun () -> final))
      end)
    (fun () ->
      while (not (finished ())) && not !interrupted do
        if should_stop () then interrupted := true
        else if accept = None && !conns = [] then begin
          (* no worker left and none can ever arrive: drain rather than hang *)
          emit ~severity:Obs.Events.Error "orphaned" [];
          interrupted := true
        end
        else begin
          let read_fds =
            (match accept with Some fd -> [ fd ] | None -> [])
            @ List.map (fun c -> Wire.reader_fd c.rd) !conns
          in
          let readable = Wire.select_eintr read_fds tick_timeout in
          (* new TCP workers *)
          (match accept with
          | Some afd when List.memq afd readable ->
              let wfd, _addr = Unix.accept afd in
              conns := mk_conn wfd :: !conns
          | _ -> ());
          (* worker traffic; snapshot the list — handlers mutate it *)
          List.iter
            (fun c ->
              if List.memq (Wire.reader_fd c.rd) readable then
                match Wire.drain c.rd with
                | exception Wire.Protocol_error e ->
                    note_corrupt c;
                    drop_conn c ("protocol error: " ^ e)
                | msgs, eof ->
                    note_corrupt c;
                    (try List.iter (handle_msg c) msgs
                     with Wire.Protocol_error e ->
                       drop_conn c ("protocol error: " ^ e));
                    if eof && List.memq c !conns then drop_conn c "eof")
            !conns;
          (* progress-expiry backup path: a worker sitting on leases
             without completing anything — wedged, or cut off from its
             Grant by a dropped frame — gets its chunks reclaimed but
             keeps its registration and socket: one lost frame is not a
             lost worker, and the moment it shows life it earns grants
             again *)
          List.iter
            (fun (worker, reclaimed) ->
              Obs.Metrics.incr m_expired;
              Telemetry.clear_leased reg ~worker;
              reassigned := !reassigned + List.length reclaimed;
              Obs.Metrics.add m_reassigned (List.length reclaimed);
              on_reclaim ~worker ~chunks:reclaimed;
              emit ~severity:Obs.Events.Warn "lease_expired"
                [
                  ("worker", Obs.Json.String worker);
                  ("leased", Obs.Json.Int (List.length reclaimed));
                ];
              emit "reassign"
                [
                  ("worker", Obs.Json.String worker);
                  ( "chunks",
                    Obs.Json.List (List.map (fun i -> Obs.Json.Int i) reclaimed) );
                ])
            (Lease.expire lease ~now:(now_s ()) ~timeout:heartbeat_timeout);
          (* ...whereas prolonged total silence means the process is
             gone without an EOF (severed link, frozen host): cut it
             loose so an all-dead fleet drains instead of spinning *)
          List.iter
            (fun c ->
              match c.name with
              | Some name -> (
                  match Lease.beat_age lease ~worker:name ~now:(now_s ()) with
                  | Some age when age > 3.0 *. heartbeat_timeout ->
                      drop_conn c "heartbeat timeout"
                  | _ -> ())
              | None -> ())
            !conns;
          (* reclaimed (or newly-arrived) chunks go to whoever is hungry *)
          feed_idle ()
        end
      done;
      List.iter (fun c -> send_safe c Wire.Shutdown) !conns;
      (* give workers a beat to flush their final telemetry before the
         sockets close: their last Events/Heartbeat only races the
         close, never the results *)
      if telemetry && !conns <> [] then begin
        let deadline = now_s () +. 0.5 in
        let rec final_drain () =
          let remaining = deadline -. now_s () in
          if remaining > 0.0 && !conns <> [] then begin
            let read_fds = List.map (fun c -> Wire.reader_fd c.rd) !conns in
            let readable = Wire.select_eintr read_fds remaining in
            if readable <> [] then begin
              List.iter
                (fun c ->
                  if List.memq (Wire.reader_fd c.rd) readable then
                    match Wire.drain c.rd with
                    | exception Wire.Protocol_error _ -> drop_conn ~lost:false c "eof"
                    | msgs, eof ->
                        note_corrupt c;
                        (try
                           List.iter
                             (fun m ->
                               match m with
                               | Wire.Heartbeat _ | Wire.Events _ -> handle_msg c m
                               | _ -> ())
                             msgs
                         with Wire.Protocol_error _ -> ());
                        if eof && List.memq c !conns then
                          drop_conn ~lost:false c "eof")
                !conns;
              final_drain ()
            end
          end
        in
        final_drain ()
      end;
      List.iter
        (fun c -> try Unix.close (Wire.reader_fd c.rd) with Unix.Unix_error _ -> ())
        !conns;
      Obs.Metrics.set g_workers 0.0;
      {
        chunks_done = !chunks_done;
        duplicates = !duplicates;
        stale_dropped = !stale_dropped;
        reassigned = !reassigned;
        workers_seen = !workers_seen;
        workers_lost = !workers_lost;
        rejoins = !rejoins;
        corrupt_frames = !corrupt_frames;
        events_forwarded = !events_forwarded;
        interrupted = !interrupted;
        fleet = Telemetry.summaries reg;
      })
