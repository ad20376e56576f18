(* ------------------------------------------------- Prometheus text *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* HELP text escaping per the exposition format: backslash and newline
   only (quotes are not special outside label values) *)
let escape_help v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* ------------------------------------------------------- fleet view *)

type fleet_worker = {
  fw_worker : string;
  fw_host : string;
  fw_pid : int;
  fw_last_seen_s : float;
  fw_offset_s : float;
  fw_chunks_done : int;
  fw_leased : int;
  fw_events : int;
  fw_metrics : Metrics.snapshot;
}

(* Identity labels ({role,worker,host,...}) and the fleet provider are
   plain refs written from the main thread before the writer starts
   (or from the coordinator loop, which the snapshot read races with
   benignly: a torn read sees the previous provider, never a torn
   closure). *)
let identity_ref : (string * string) list ref = ref []
let set_identity kvs = identity_ref := kvs
let identity () = !identity_ref

let fleet_ref : (unit -> fleet_worker list) option ref = ref None
let set_fleet f = fleet_ref := f

let labels kvs =
  match kvs with
  | [] -> ""
  | kvs ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label v))
           kvs)
    ^ "}"

let prometheus_of_snapshot ?meta ?(identity = []) ?(fleet = []) s =
  let buf = Buffer.create 1024 in
  let help pname orig =
    Printf.bprintf buf "# HELP %s Registry metric %s.\n" pname
      (escape_help orig)
  in
  let identity_suffix =
    String.concat ""
      (List.map
         (fun (k, v) ->
           Printf.sprintf ",%s=\"%s\"" (sanitize k) (escape_label v))
         identity)
  in
  (match (meta, identity) with
   | None, [] -> ()
   | Some m, _ ->
     Printf.bprintf buf
       "# HELP pp_build_info Build and run provenance (value is always 1).\n";
     Printf.bprintf buf "# TYPE pp_build_info gauge\n";
     Printf.bprintf buf
       "pp_build_info{git_rev=\"%s\",hostname=\"%s\",ocaml_version=\"%s\",jobs=\"%d\"%s} 1\n"
       (escape_label m.Run_meta.git_rev)
       (escape_label m.Run_meta.hostname)
       (escape_label m.Run_meta.ocaml_version)
       m.Run_meta.jobs identity_suffix
   | None, _ :: _ ->
     (* no collected meta (a bare worker, a test): the identity labels
        still deserve a provenance series *)
     Printf.bprintf buf
       "# HELP pp_build_info Build and run provenance (value is always 1).\n";
     Printf.bprintf buf "# TYPE pp_build_info gauge\n";
     Printf.bprintf buf "pp_build_info{%s} 1\n"
       (String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label v))
             identity)));
  List.iter
    (fun (name, v) ->
      let pname = "pp_" ^ sanitize name in
      match v with
      | Metrics.Counter n ->
        help pname name;
        Printf.bprintf buf "# TYPE %s counter\n%s %d\n" pname pname n
      | Metrics.Gauge f ->
        help pname name;
        Printf.bprintf buf "# TYPE %s gauge\n%s %.17g\n" pname pname f
      | Metrics.Histogram { bounds; counts; sum; count } ->
        help pname name;
        Printf.bprintf buf "# TYPE %s histogram\n" pname;
        let cum = ref 0 in
        Array.iteri
          (fun i c ->
            cum := !cum + c;
            let le =
              if i < Array.length bounds then Printf.sprintf "%.17g" bounds.(i)
              else "+Inf"
            in
            Printf.bprintf buf "%s_bucket{le=\"%s\"} %d\n" pname le !cum)
          counts;
        Printf.bprintf buf "%s_sum %.17g\n" pname sum;
        Printf.bprintf buf "%s_count %d\n" pname count)
    s;
  (* fleet: one labelled series per worker inside each family, HELP and
     TYPE once per family as the exposition format requires *)
  if fleet <> [] then begin
    let wl w = [ ("worker", w.fw_worker); ("host", w.fw_host) ] in
    Printf.bprintf buf
      "# HELP pp_fleet_worker_info Distributed-scan worker identity (value is always 1).\n\
       # TYPE pp_fleet_worker_info gauge\n";
    List.iter
      (fun w ->
        Printf.bprintf buf "pp_fleet_worker_info%s 1\n"
          (labels (wl w @ [ ("pid", string_of_int w.fw_pid) ])))
      fleet;
    let family name typ help_text value =
      Printf.bprintf buf "# HELP %s %s\n# TYPE %s %s\n" name
        (escape_help help_text) name typ;
      List.iter
        (fun w -> Printf.bprintf buf "%s%s %s\n" name (labels (wl w)) (value w))
        fleet
    in
    family "pp_fleet_last_seen_seconds" "gauge"
      "Seconds since the coordinator last heard from this worker."
      (fun w -> Printf.sprintf "%.17g" w.fw_last_seen_s);
    family "pp_fleet_clock_offset_seconds" "gauge"
      "Estimated worker-to-coordinator monotonic clock offset."
      (fun w -> Printf.sprintf "%.17g" w.fw_offset_s);
    family "pp_fleet_chunks_done" "counter"
      "Fresh chunk results recorded from this worker."
      (fun w -> string_of_int w.fw_chunks_done);
    family "pp_fleet_leased" "gauge"
      "Chunks currently leased to this worker."
      (fun w -> string_of_int w.fw_leased);
    family "pp_fleet_events_forwarded" "counter"
      "Event-log lines forwarded by this worker."
      (fun w -> string_of_int w.fw_events);
    (* every metric the workers reported, one family per name with a
       {worker,host} series per reporter *)
    let names =
      List.concat_map (fun w -> List.map fst w.fw_metrics) fleet
      |> List.sort_uniq String.compare
    in
    List.iter
      (fun name ->
        let pname = "pp_worker_" ^ sanitize name in
        let rows =
          List.filter_map
            (fun w ->
              Option.map (fun v -> (w, v)) (List.assoc_opt name w.fw_metrics))
            fleet
        in
        match rows with
        | [] -> ()
        | (_, v0) :: _ ->
          let typ =
            match v0 with
            | Metrics.Counter _ -> "counter"
            | Metrics.Gauge _ -> "gauge"
            | Metrics.Histogram _ -> "histogram"
          in
          Printf.bprintf buf
            "# HELP %s Worker-reported registry metric %s.\n# TYPE %s %s\n"
            pname (escape_help name) pname typ;
          List.iter
            (fun (w, v) ->
              match v with
              | Metrics.Counter n ->
                Printf.bprintf buf "%s%s %d\n" pname (labels (wl w)) n
              | Metrics.Gauge f ->
                Printf.bprintf buf "%s%s %.17g\n" pname (labels (wl w)) f
              | Metrics.Histogram { bounds; counts; sum; count } ->
                let cum = ref 0 in
                Array.iteri
                  (fun i c ->
                    cum := !cum + c;
                    let le =
                      if i < Array.length bounds then
                        Printf.sprintf "%.17g" bounds.(i)
                      else "+Inf"
                    in
                    Printf.bprintf buf "%s_bucket%s %d\n" pname
                      (labels (wl w @ [ ("le", le) ]))
                      !cum)
                  counts;
                Printf.bprintf buf "%s_sum%s %.17g\n" pname (labels (wl w)) sum;
                Printf.bprintf buf "%s_count%s %d\n" pname (labels (wl w)) count)
            rows)
      names
  end;
  Buffer.contents buf

(* ------------------------------------------------------ JSON snapshot *)

let fleet_worker_json w =
  Json.Obj
    [
      ("worker", Json.String w.fw_worker);
      ("host", Json.String w.fw_host);
      ("pid", Json.Int w.fw_pid);
      ("last_seen_s", Json.Float w.fw_last_seen_s);
      ("offset_s", Json.Float w.fw_offset_s);
      ("chunks_done", Json.Int w.fw_chunks_done);
      ("leased", Json.Int w.fw_leased);
      ("events", Json.Int w.fw_events);
      ("metrics", Metrics.to_json_value w.fw_metrics);
    ]

let snapshot_json ?meta ?fleet ~elapsed_s s =
  let meta_fields =
    match meta with None -> [] | Some m -> [ ("meta", Run_meta.to_json m) ]
  in
  (* the workers section (even an empty one: telemetry on, no worker
     yet) is present exactly when a fleet provider is set, so readers
     can tell telemetry-off from an empty fleet *)
  let fleet_fields =
    match fleet with
    | None -> []
    | Some rows -> [ ("workers", Json.List (List.map fleet_worker_json rows)) ]
  in
  Json.Obj
    (("schema", Json.String "ppmetrics/v2")
     :: meta_fields
    @ [
        ("elapsed_s", Json.Float elapsed_s);
        ("metrics", Metrics.to_json_value s);
      ]
    @ fleet_fields)

(* -------------------------------------------------------- file output *)

let prom_path path =
  if Filename.check_suffix path ".json" then
    Filename.chop_suffix path ".json" ^ ".prom"
  else path ^ ".prom"

(* tmp + rename in the destination directory, so a concurrent reader
   (tail, a Prometheus scrape relay, ...) never sees a torn file *)
let atomic_write path contents =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc contents);
  Sys.rename tmp path

let write_now ?meta ~t0 ~path () =
  let s = Metrics.snapshot () in
  let elapsed_s = Clock.elapsed_s t0 in
  let identity = !identity_ref in
  let fleet = Option.map (fun f -> f ()) !fleet_ref in
  atomic_write path
    (Json.to_string (snapshot_json ?meta ?fleet ~elapsed_s s) ^ "\n");
  atomic_write (prom_path path)
    (prometheus_of_snapshot ?meta ~identity
       ~fleet:(Option.value ~default:[] fleet)
       s)

(* ---------------------------------------------------- periodic export *)

type exporter = {
  stop_requested : bool Atomic.t;
  writer : Thread.t;
  write : unit -> unit;
}

let current : exporter option ref = ref None

let stop () =
  match !current with
  | None -> ()
  | Some ex ->
    current := None;
    Atomic.set ex.stop_requested true;
    Thread.join ex.writer;
    ex.write ()

let detach () = current := None

let start ?meta ?(every_s = 5.0) ~path () =
  stop ();
  let every_s = Float.max 0.05 every_s in
  let stop_requested = Atomic.make false in
  let t0 = Clock.now_ns () in
  let write () =
    (* a full disk or a yanked directory must not kill the scan *)
    try write_now ?meta ~t0 ~path ()
    with Sys_error _ | Unix.Unix_error _ -> ()
  in
  write ();
  let writer =
    (* a systhread, NOT a domain: it shares domain 0 (near-free on
       single-core machines where a background domain costs 20-30% in
       cross-domain GC coordination), and — decisive for the
       distributed scan — OCaml 5 forbids Unix.fork once any domain
       was ever spawned, so the exporter must not be the reason a
       coordinator cannot fork its workers *)
    Thread.create
      (fun () ->
        let rec run () =
          (* sleep in short slices so [stop] returns promptly *)
          let deadline =
            Int64.add (Clock.now_ns ()) (Int64.of_float (every_s *. 1e9))
          in
          let rec nap () =
            if (not (Atomic.get stop_requested))
               && Int64.compare (Clock.now_ns ()) deadline < 0
            then begin
              Thread.delay 0.05;
              nap ()
            end
          in
          nap ();
          if not (Atomic.get stop_requested) then begin
            write ();
            run ()
          end
        in
        run ())
      ()
  in
  current := Some { stop_requested; writer; write }

let active () = !current <> None
