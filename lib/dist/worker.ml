let now_s () = Obs.Clock.ns_to_s (Obs.Clock.now_ns ())

type chunk_runner = {
  scan : int -> Obs.Json.t;
  range : (int -> int * int) option;
}

(* Telemetry state, alive between the Welcome that requested it and
   Shutdown: the pending event-line batch and the metric snapshot the
   next heartbeat will diff against. *)
type tele = {
  pending : string Queue.t;
  last_snap : Obs.Metrics.snapshot ref;
}

(* Completed-but-possibly-unacked chunk states. Under chaos a Result
   frame can vanish; the coordinator reclaims the lease and re-grants
   the chunk — to us or to a peer. Keeping the last few computed states
   lets a re-granted chunk be *resent* instead of *redone*: the
   in-flight lease reconciliation of the rejoin handshake. The cache
   survives reconnects (run_reconnect threads one through every
   session) because the unacked work predates the disconnect. *)
type cache = {
  states : (int, Obs.Json.t) Hashtbl.t;
  fifo : int Queue.t;
  cap : int;
}

let cache_create ?(cap = 128) () =
  { states = Hashtbl.create 32; fifo = Queue.create (); cap }

let cache_add c chunk state =
  if not (Hashtbl.mem c.states chunk) then begin
    Hashtbl.replace c.states chunk state;
    Queue.add chunk c.fifo;
    if Queue.length c.fifo > c.cap then
      Hashtbl.remove c.states (Queue.pop c.fifo)
  end

let m_resends = Obs.Metrics.counter "dist.cache_resends"

(* Hello re-sends before giving up on a Welcome *)
let hello_retries = 3

(* pending event lines that force an early flush *)
let events_batch = 64

let run ?(heartbeat_every = 2.0) ?(welcome_timeout = 5.0) ?chaos
    ?cache:(store = cache_create ()) ?(on_welcome = fun ~config_hash:_ -> ())
    ?(on_chunk_done = fun _ -> ()) ~name ~fd ~runner () =
  let rd = Wire.reader fd in
  let last_sent = ref (now_s ()) in
  let send msg =
    Wire.send ?chaos fd msg;
    last_sent := now_s ()
  in
  let tele = ref None in
  let flush_events () =
    match !tele with
    | Some t when not (Queue.is_empty t.pending) ->
        let lines = List.of_seq (Queue.to_seq t.pending) in
        Queue.clear t.pending;
        send
          (Wire.Events { worker = name; origin_s = Obs.Events.origin_s (); lines })
    | _ -> ()
  in
  let metrics_delta () =
    match !tele with
    | None -> None
    | Some t ->
        let cur = Obs.Metrics.snapshot () in
        let d = Obs.Metrics.diff ~before:!(t.last_snap) ~after:cur in
        t.last_snap := cur;
        if d = [] then None else Some (Obs.Metrics.to_json_value d)
  in
  let beat ?(force = false) () =
    let overdue = now_s () -. !last_sent >= heartbeat_every in
    let batch_full =
      match !tele with Some t -> Queue.length t.pending >= events_batch | None -> false
    in
    if force || overdue || batch_full then begin
      flush_events ();
      send
        (Wire.Heartbeat
           { worker = name; sent_s = now_s (); metrics = metrics_delta () })
    end
  in
  let start_telemetry () =
    Obs.Metrics.set_enabled true;
    let pending = Queue.create () in
    let capture line = Queue.add line pending in
    (* keep a local --events file if the worker has one (tee), else
       install a capture-only sink; either way every record line of
       this process also lands in the coordinator's merged log *)
    if Obs.Events.enabled () then Obs.Events.set_tee (Some capture)
    else Obs.Events.start_sink capture;
    tele := Some { pending; last_snap = ref (Obs.Metrics.snapshot ()) }
  in
  let hello () =
    Wire.Hello
      {
        worker = name;
        pid = Unix.getpid ();
        host = Unix.gethostname ();
        sent_s = now_s ();
      }
  in
  (* The opening handshake under chaos: either our Hello or the
     coordinator's Welcome can be a dropped frame, and on a socketpair
     there is no reconnect to fall back on — so missing the Welcome for
     a while means "say Hello again on the same fd" (the coordinator
     re-Welcomes a name it already knows). *)
  let rec await_welcome retries =
    match Wire.recv_within rd ~timeout_s:welcome_timeout with
    | `Eof -> Error "coordinator closed the connection before Welcome"
    | `Msg (Wire.Welcome { config; config_hash; telemetry; _ }) ->
        Ok (config, config_hash, telemetry)
    | `Msg Wire.Shutdown -> Error "coordinator shut down before Welcome"
    | `Msg (Wire.Grant _ | Wire.Heartbeat _ | Wire.Events _) ->
        (* traffic before the Welcome means the Welcome frame itself
           was lost — keep waiting; the timeout path re-Hellos and the
           coordinator re-Welcomes *)
        await_welcome retries
    | `Msg (Wire.Hello _ | Wire.Result _) ->
        Error "expected Welcome as the first coordinator message"
    | `Timeout ->
        if retries <= 0 then Error "no Welcome from coordinator (timed out)"
        else begin
          send (hello ());
          await_welcome (retries - 1)
        end
  in
  try
    send (hello ());
    match await_welcome hello_retries with
    | Error e -> Error e
    | Ok (config, config_hash, telemetry) -> (
        on_welcome ~config_hash;
        if telemetry then start_telemetry ();
        match runner config with
        | Error e -> Error (Printf.sprintf "rejected coordinator config: %s" e)
        | Ok cr ->
            let rec loop () =
              (* waking every half-beat keeps heartbeats flowing while
                 idle: a worker whose Grant frame was dropped would
                 otherwise block silently, indistinguishable from dead *)
              match Wire.recv_within rd ~timeout_s:(heartbeat_every /. 2.0) with
              | `Eof -> Error "coordinator vanished (EOF before Shutdown)"
              | `Timeout ->
                  beat ();
                  loop ()
              | `Msg Wire.Shutdown ->
                  (* the final flush races the coordinator closing our
                     fd after its last Result arrived — losing it only
                     loses telemetry, never results *)
                  (try beat ~force:true ()
                   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
                  Ok ()
              | `Msg (Wire.Grant { lo_chunk; hi_chunk; epoch }) ->
                  for chunk = lo_chunk to hi_chunk - 1 do
                    beat ();
                    let state =
                      match Hashtbl.find_opt store.states chunk with
                      | Some state ->
                          (* computed in a previous life, Result lost in
                             transit: resend, don't redo *)
                          Obs.Metrics.incr m_resends;
                          state
                      | None ->
                          let t0 = now_s () in
                          let state = cr.scan chunk in
                          if !tele <> None && Obs.Events.enabled () then begin
                            let data =
                              [
                                ("chunk", Obs.Json.Int chunk);
                                ("dur_s", Obs.Json.Float (now_s () -. t0));
                              ]
                              @
                              match cr.range with
                              | Some range ->
                                  (* hi is inclusive, the Trace_stats
                                     lo/hi convention, so chunk-size
                                     normalisation works on the merged
                                     log *)
                                  let lo, hi = range chunk in
                                  [
                                    ("lo", Obs.Json.Int lo);
                                    ("hi", Obs.Json.Int (hi - 1));
                                  ]
                              | None -> []
                            in
                            Obs.Events.emit "worker.chunk" ~data
                          end;
                          cache_add store chunk state;
                          state
                    in
                    flush_events ();
                    send (Wire.Result { chunk; epoch; state });
                    on_chunk_done chunk
                  done;
                  loop ()
              | `Msg (Wire.Welcome _) ->
                  (* a duplicated Welcome frame, or the answer to a
                     Hello retry that crossed the first Welcome on the
                     wire: the config is identical, carry on *)
                  loop ()
              | `Msg (Wire.Heartbeat _ | Wire.Events _) -> loop ()
              | `Msg (Wire.Hello _ | Wire.Result _) ->
                  Error "worker-bound stream carried a worker message"
            in
            loop ())
  with
  | Wire.Protocol_error e -> Error e
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      Error "coordinator vanished (broken pipe)"

let m_reconnects = Obs.Metrics.counter "dist.reconnects"

(* the longest backoff sleep between redials, before jitter *)
let backoff_cap = 5.0

let run_reconnect ?heartbeat_every ?welcome_timeout ?(max_attempts = 6)
    ?(backoff_base = 0.4) ?(jitter_seed = 0) ?chaos_for ?on_chunk_done ~name
    ~connect ~runner () =
  let store = cache_create () in
  let rng = Splitmix64.create (jitter_seed lxor Hashtbl.hash name) in
  let first_hash = ref None in
  let hash_conflict = ref None in
  let welcomed = ref false in
  let on_welcome ~config_hash =
    welcomed := true;
    match !first_hash with
    | None -> first_hash := Some config_hash
    | Some h when h = config_hash -> ()
    | Some h ->
        (* a different scan took over the endpoint: resending cached
           states would poison it — refuse to proceed *)
        hash_conflict :=
          Some
            (Printf.sprintf "config hash changed across reconnect (%s -> %s)" h
               config_hash)
  in
  let rec attempt session failures =
    welcomed := false;
    let outcome =
      match connect () with
      | Error e -> Error e
      | Ok fd ->
          let chaos = match chaos_for with None -> None | Some f -> f session in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              run ?heartbeat_every ?welcome_timeout ?chaos ~cache:store
                ~on_welcome ?on_chunk_done ~name ~fd ~runner ())
    in
    match (outcome, !hash_conflict) with
    | _, Some e -> Error e
    | Ok (), None -> Ok ()
    | Error e, None ->
        (* a session that got as far as Welcome proves the coordinator
           was alive: its loss resets the failure streak, so only
           *consecutive* dead ends count against max_attempts *)
        let failures = if !welcomed then 1 else failures + 1 in
        if failures > max_attempts then
          Error (Printf.sprintf "%s (after %d reconnect attempts)" e max_attempts)
        else begin
          Obs.Metrics.incr m_reconnects;
          if Obs.Events.enabled () then
            Obs.Events.emit "dist.reconnect"
              ~data:
                [
                  ("worker", Obs.Json.String name);
                  ("attempt", Obs.Json.Int failures);
                  ("error", Obs.Json.String e);
                ];
          let backoff =
            Float.min backoff_cap
              (backoff_base *. (2.0 ** float_of_int (failures - 1)))
          in
          (* deterministic jitter in [0.75, 1.25): de-synchronises a
             fleet reconnect stampede without an RNG the replay cannot
             reproduce *)
          Unix.sleepf (backoff *. (0.75 +. (0.5 *. Splitmix64.float_unit rng)));
          attempt (session + 1) failures
        end
  in
  attempt 0 0
