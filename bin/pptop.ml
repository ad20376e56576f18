(* pptop: a live terminal dashboard over the atomic ppmetrics export
   that --metrics-out writes. Point it at the same FILE while a scan
   runs:

     bbsearch -n 4 --metrics-out /tmp/bb.json --metrics-every 1 &
     pptop /tmp/bb.json

   Every refresh re-reads the snapshot (the tmp+rename export means a
   read never sees a torn file), computes counter rates from the
   previous snapshot and appends to in-memory series rendered as
   sparklines. --once prints a single frame without ANSI control
   sequences (CI, scripting). --fleet adds the per-worker table that a
   telemetry-on coordinator publishes in its snapshots. *)

let hist_len = 48
let stale_after_s = 10.0

type frow = {
  f_worker : string;
  f_host : string;
  f_pid : int;
  f_last_seen_s : float;
  f_offset_s : float;
  f_chunks : int;
  f_leased : int;
  f_events : int;
}

type sample = {
  elapsed_s : float;
  snap : Obs.Metrics.snapshot;
  workers : frow list;
}

let jnumber = function
  | Some (Obs.Json.Float f) -> f
  | Some (Obs.Json.Int i) -> float_of_int i
  | _ -> 0.0

let jint = function Some (Obs.Json.Int i) -> i | _ -> 0

let jstring = function Some (Obs.Json.String s) -> s | _ -> ""

let frow_of_json = function
  | Obs.Json.Obj f ->
    let g k = List.assoc_opt k f in
    Some
      {
        f_worker = jstring (g "worker");
        f_host = jstring (g "host");
        f_pid = jint (g "pid");
        f_last_seen_s = jnumber (g "last_seen_s");
        f_offset_s = jnumber (g "offset_s");
        f_chunks = jint (g "chunks_done");
        f_leased = jint (g "leased");
        f_events = jint (g "events");
      }
  | _ -> None

let read_snapshot path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents ->
    (match Obs.Json.parse contents with
     | Error e -> Error e
     | Ok (Obs.Json.Obj fields) ->
       let elapsed_s = jnumber (List.assoc_opt "elapsed_s" fields) in
       let meta =
         Option.bind
           (List.assoc_opt "meta" fields)
           (fun j -> Result.to_option (Obs.Run_meta.of_json j))
       in
       let workers =
         match List.assoc_opt "workers" fields with
         | Some (Obs.Json.List items) -> List.filter_map frow_of_json items
         | _ -> []
       in
       (match List.assoc_opt "metrics" fields with
        | Some m ->
          (match Obs.Metrics.of_json_value m with
           | Ok snap -> Ok (meta, { elapsed_s; snap; workers })
           | Error e -> Error e)
        | None -> Error "no \"metrics\" field (is this a ppmetrics file?)")
     | Ok _ -> Error "not a JSON object (is this a ppmetrics file?)")

(* per-metric series of recent values (gauges) or rates (counters),
   oldest first, capped at [hist_len] *)
let series : (string, float list) Hashtbl.t = Hashtbl.create 64

let push name v =
  let old = Option.value ~default:[] (Hashtbl.find_opt series name) in
  let l = old @ [ v ] in
  let n = List.length l in
  let l = if n > hist_len then List.filteri (fun i _ -> i >= n - hist_len) l else l in
  Hashtbl.replace series name l

let spark name =
  match Hashtbl.find_opt series name with
  | None | Some [] -> ""
  | Some l -> Obs.History.sparkline l

let fit w s = if String.length s <= w then s else String.sub s 0 (w - 1) ^ "~"

let number f =
  if Float.abs f >= 1e6 then Printf.sprintf "%.3g" f
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.3f" f

let render_fleet buf ~prev ~cur ~dt =
  if cur.workers = [] then
    Buffer.add_string buf
      "\n(no workers — telemetry off, or none has joined yet)\n"
  else begin
    Printf.bprintf buf "\n%-24s %-12s %7s %8s %7s %7s %9s %6s  %s\n" "WORKER"
      "host" "chunks" "chunks/s" "leased" "events" "offset" "seen" "";
    List.iter
      (fun w ->
        let rate =
          match
            ( dt,
              Option.bind prev (fun p ->
                  List.find_opt (fun x -> x.f_worker = w.f_worker) p.workers) )
          with
          | Some dt, Some p -> float_of_int (w.f_chunks - p.f_chunks) /. dt
          | _ -> 0.0
        in
        let key = "worker:" ^ w.f_worker in
        push key rate;
        let seen =
          if w.f_last_seen_s > stale_after_s then
            Printf.sprintf "%.0fs!" w.f_last_seen_s
          else Printf.sprintf "%.0fs" w.f_last_seen_s
        in
        Printf.bprintf buf "%-24s %-12s %7d %8s %7d %7d %8.1gs %6s  %s\n"
          (fit 24 w.f_worker) (fit 12 w.f_host) w.f_chunks (number rate)
          w.f_leased w.f_events w.f_offset_s seen (spark key))
      cur.workers
  end;
  (* recovery counters, shown only once something went wrong: a clean
     run keeps the fleet view clean *)
  let v name =
    match List.assoc_opt name cur.snap with
    | Some (Obs.Metrics.Counter n) -> float_of_int n
    | Some (Obs.Metrics.Gauge g) -> g
    | Some _ | None -> 0.0
  in
  let restarts = v "coordinator.restarts"
  and rejoins = v "dist.rejoins"
  and corrupt = v "dist.corrupt_frames"
  and expired = v "dist.lease_expired" in
  if restarts +. rejoins +. corrupt +. expired > 0.0 then
    Printf.bprintf buf
      "recovery: %s coordinator restarts, %s rejoins, %s expired leases, %s \
       corrupt frames\n"
      (number restarts) (number rejoins) (number expired) (number corrupt)

let render ~path ~meta ~prev ~cur ~filters ~fleet =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "pptop — %s   elapsed %.1fs%s\n" path cur.elapsed_s
    (match meta with
     | Some m ->
       Printf.sprintf "   [%s@%s jobs=%d]" m.Obs.Run_meta.git_rev
         m.Obs.Run_meta.hostname m.Obs.Run_meta.jobs
     | None -> "");
  let dt =
    match prev with
    | Some p when cur.elapsed_s > p.elapsed_s -> Some (cur.elapsed_s -. p.elapsed_s)
    | _ -> None
  in
  if fleet then render_fleet buf ~prev ~cur ~dt;
  let prev_value name =
    Option.bind prev (fun p -> List.assoc_opt name p.snap)
  in
  let keep name =
    filters = [] || List.exists (fun f -> String.starts_with ~prefix:f name) filters
  in
  let entries =
    List.filter (fun (name, _) -> keep name) cur.snap
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let counters, gauges, hists =
    List.fold_left
      (fun (c, g, h) (name, v) ->
        match v with
        | Obs.Metrics.Counter _ -> ((name, v) :: c, g, h)
        | Obs.Metrics.Gauge _ -> (c, (name, v) :: g, h)
        | Obs.Metrics.Histogram _ -> (c, g, (name, v) :: h))
      ([], [], []) entries
  in
  let counters = List.rev counters
  and gauges = List.rev gauges
  and hists = List.rev hists in
  if counters <> [] then begin
    Printf.bprintf buf "\n%-40s %14s %12s  %s\n" "COUNTER" "total" "rate/s" "";
    List.iter
      (fun (name, v) ->
        match v with
        | Obs.Metrics.Counter n ->
          let rate =
            match (dt, prev_value name) with
            | Some dt, Some (Obs.Metrics.Counter p) -> float_of_int (n - p) /. dt
            | _ -> 0.0
          in
          push name rate;
          Printf.bprintf buf "%-40s %14d %12s  %s\n" (fit 40 name) n
            (number rate) (spark name)
        | _ -> ())
      counters
  end;
  if gauges <> [] then begin
    Printf.bprintf buf "\n%-40s %14s %12s  %s\n" "GAUGE" "value" "" "";
    List.iter
      (fun (name, v) ->
        match v with
        | Obs.Metrics.Gauge f ->
          push name f;
          Printf.bprintf buf "%-40s %14s %12s  %s\n" (fit 40 name) (number f) ""
            (spark name)
        | _ -> ())
      gauges
  end;
  if hists <> [] then begin
    Printf.bprintf buf "\n%-40s %10s %10s %10s %10s  %s\n" "HISTOGRAM" "count"
      "p50" "p90" "p99" "buckets";
    List.iter
      (fun (name, v) ->
        match v with
        | Obs.Metrics.Histogram { counts; count; _ } ->
          let q p =
            match Obs.Metrics.quantile v p with
            | Some x -> number x
            | None -> "-"
          in
          Printf.bprintf buf "%-40s %10d %10s %10s %10s  %s\n" (fit 40 name)
            count (q 0.5) (q 0.9) (q 0.99)
            (Obs.History.sparkline
               (Array.to_list (Array.map float_of_int counts)))
        | _ -> ())
      hists
  end;
  Buffer.contents buf

let run path interval once filters fleet =
  let tty = try Unix.isatty Unix.stdout with Unix.Unix_error _ -> false in
  let rec loop prev waited =
    match read_snapshot path with
    | Error e ->
      if once then begin
        Printf.eprintf "pptop: %s: %s\n" path e;
        2
      end
      else begin
        if waited = 0 then
          Printf.eprintf "pptop: waiting for %s (%s)\n%!" path e;
        Unix.sleepf interval;
        loop prev (waited + 1)
      end
    | Ok (meta, cur) ->
      let frame = render ~path ~meta ~prev ~cur ~filters ~fleet in
      if once then begin
        print_string frame;
        0
      end
      else begin
        (* home + clear-below keeps a static layout from flickering *)
        if tty then print_string "\x1b[H\x1b[J";
        print_string frame;
        flush stdout;
        Unix.sleepf interval;
        loop (Some cur) waited
      end
  in
  loop None 0

open Cmdliner

let path_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"FILE"
           ~doc:"ppmetrics JSON snapshot, as written by --metrics-out.")

let interval_arg =
  Arg.(value & opt float 1.0
       & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh interval.")

let once_arg =
  Arg.(value & flag
       & info [ "once" ]
           ~doc:"Print a single frame without terminal control sequences and \
                 exit (scripting/CI).")

let filter_arg =
  Arg.(value & opt_all string []
       & info [ "filter" ] ~docv:"PREFIX"
           ~doc:"Only show metrics whose name starts with $(docv) \
                 (repeatable).")

let fleet_arg =
  Arg.(value & flag
       & info [ "fleet" ]
           ~doc:"Show the per-worker table from a telemetry-on coordinator's \
                 ppmetrics/v2 snapshot (chunk rates, leases, forwarded \
                 events, clock offsets, last-seen staleness) above the \
                 global panels.")

let cmd =
  Cmd.v
    (Cmd.info "pptop"
       ~doc:"Live terminal dashboard for a running instrumented binary: tails \
             the atomic ppmetrics export, showing counter rates, gauges \
             and histogram quantiles with sparkline history — plus, with \
             $(b,--fleet), the coordinator's per-worker telemetry.")
    Term.(const run $ path_arg $ interval_arg $ once_arg $ filter_arg $ fleet_arg)

let () = exit (Cmd.eval' cmd)
