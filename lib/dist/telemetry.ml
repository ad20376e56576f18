(* The coordinator's per-worker telemetry registry. Everything here is
   advisory observability riding on already-racy channels (heartbeat
   timing, event batching) — nothing feeds back into scheduling or
   results, which is what keeps the scan's determinism contract intact
   with telemetry on or off.

   The mutex is real, not ceremony: the coordinator's select loop
   mutates rows while the Obs.Export writer thread snapshots them for
   the fleet view. *)

type worker = {
  w_name : string;
  mutable w_host : string;
  mutable w_pid : int;
  mutable w_last_seen_s : float;  (* coordinator monotonic, absolute *)
  mutable w_offset_s : float;
  mutable w_has_offset : bool;
  mutable w_chunks_done : int;
  mutable w_leased : int;
  mutable w_events : int;
  mutable w_metrics : Obs.Metrics.snapshot;
}

type t = { lock : Mutex.t; mutable rows : worker list (* reverse join order *) }

type summary = {
  s_worker : string;
  s_host : string;
  s_pid : int;
  s_chunks_done : int;
  s_events : int;
  s_offset_s : float;
  s_metrics : Obs.Metrics.snapshot;
}

let create () = { lock = Mutex.create (); rows = [] }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t name = List.find_opt (fun w -> w.w_name = name) t.rows

let get t name ~now =
  match find t name with
  | Some w -> w
  | None ->
    let w =
      {
        w_name = name;
        w_host = "";
        w_pid = 0;
        w_last_seen_s = now;
        w_offset_s = 0.0;
        w_has_offset = false;
        w_chunks_done = 0;
        w_leased = 0;
        w_events = 0;
        w_metrics = [];
      }
    in
    t.rows <- w :: t.rows;
    w

(* One-way delay estimation: every stamped message gives a sample
   [recv - sent = true_offset + delivery_delay] with delay >= 0, so the
   minimum over samples converges on the true offset from above. On one
   machine (fork workers share CLOCK_MONOTONIC) the true offset is 0
   and the estimate is just the smallest observed delivery delay. *)
let sample w ~sent_s ~now =
  let est = now -. sent_s in
  if (not w.w_has_offset) || est < w.w_offset_s then begin
    w.w_offset_s <- est;
    w.w_has_offset <- true
  end

let join t ~worker ~host ~pid ~sent_s ~now =
  with_lock t (fun () ->
      let w = get t worker ~now in
      w.w_host <- host;
      w.w_pid <- pid;
      w.w_last_seen_s <- now;
      sample w ~sent_s ~now)

let seen t ~worker ~now =
  with_lock t (fun () -> (get t worker ~now).w_last_seen_s <- now)

let heartbeat t ~worker ~sent_s ~metrics ~now =
  with_lock t (fun () ->
      let w = get t worker ~now in
      w.w_last_seen_s <- now;
      sample w ~sent_s ~now;
      match metrics with
      | None -> ()
      | Some j -> (
          match Obs.Metrics.of_json_value j with
          | Ok delta -> w.w_metrics <- Obs.Metrics.merge w.w_metrics delta
          | Error _ -> () (* malformed telemetry is dropped, never fatal *)))

let chunk_done t ~worker ~now =
  with_lock t (fun () ->
      let w = get t worker ~now in
      w.w_last_seen_s <- now;
      w.w_chunks_done <- w.w_chunks_done + 1;
      if w.w_leased > 0 then w.w_leased <- w.w_leased - 1)

let add_leased t ~worker ~n ~now =
  with_lock t (fun () ->
      let w = get t worker ~now in
      w.w_leased <- w.w_leased + n)

let clear_leased t ~worker =
  with_lock t (fun () ->
      match find t worker with Some w -> w.w_leased <- 0 | None -> ())

let note_events t ~worker ~n ~now =
  with_lock t (fun () ->
      let w = get t worker ~now in
      w.w_last_seen_s <- now;
      w.w_events <- w.w_events + n)

let offset t ~worker =
  with_lock t (fun () ->
      match find t worker with
      | Some w when w.w_has_offset -> w.w_offset_s
      | _ -> 0.0)

(* ------------------------------------------------- event realignment *)

let number = function
  | Some (Obs.Json.Float f) -> Some f
  | Some (Obs.Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* Rewrite one forwarded ppevents line into the receiving sink's time
   basis and tag it with its origin. [offset_s]/[origin_s] come from
   the sender ([worker absolute ts = origin_s + ts_s], then + offset to
   land on the receiver's clock); [sink_origin_s] is the receiving
   sink's own origin, subtracted so the injected [ts_s] is relative
   like every locally-emitted record. Header lines (they carry
   "schema") and unparseable lines yield [None]. *)
let align_line ~offset_s ~origin_s ~sink_origin_s ~tags line =
  match Obs.Json.parse line with
  | Error _ -> None
  | Ok (Obs.Json.Obj fields) ->
    if List.mem_assoc "schema" fields then None
    else
      let ts = Option.value ~default:0.0 (number (List.assoc_opt "ts_s" fields)) in
      let ts' = ts +. origin_s +. offset_s -. sink_origin_s in
      let fields =
        List.map
          (fun (k, v) -> if k = "ts_s" then (k, Obs.Json.Float ts') else (k, v))
          fields
      in
      let fresh = List.filter (fun (k, _) -> not (List.mem_assoc k fields)) tags in
      Some (Obs.Json.Obj (fields @ fresh))
  | Ok _ -> None

let align_events t ~worker ~origin_s ~sink_origin_s lines =
  let offset_s, host, pid =
    with_lock t (fun () ->
        match find t worker with
        | Some w -> ((if w.w_has_offset then w.w_offset_s else 0.0), w.w_host, w.w_pid)
        | None -> (0.0, "", 0))
  in
  let tags =
    [ ("worker", Obs.Json.String worker) ]
    @ (if host = "" then [] else [ ("host", Obs.Json.String host) ])
    @ if pid = 0 then [] else [ ("wpid", Obs.Json.Int pid) ]
  in
  List.filter_map (align_line ~offset_s ~origin_s ~sink_origin_s ~tags) lines

(* ------------------------------------------------------------ views *)

let fleet t ~now =
  with_lock t (fun () ->
      List.rev_map
        (fun w ->
          {
            Obs.Export.fw_worker = w.w_name;
            fw_host = w.w_host;
            fw_pid = w.w_pid;
            fw_last_seen_s = Float.max 0.0 (now -. w.w_last_seen_s);
            fw_offset_s = (if w.w_has_offset then w.w_offset_s else 0.0);
            fw_chunks_done = w.w_chunks_done;
            fw_leased = w.w_leased;
            fw_events = w.w_events;
            fw_metrics = w.w_metrics;
          })
        t.rows)

let summaries t =
  with_lock t (fun () ->
      List.rev_map
        (fun w ->
          {
            s_worker = w.w_name;
            s_host = w.w_host;
            s_pid = w.w_pid;
            s_chunks_done = w.w_chunks_done;
            s_events = w.w_events;
            s_offset_s = (if w.w_has_offset then w.w_offset_s else 0.0);
            s_metrics = w.w_metrics;
          })
        t.rows)
