type section = { wall_s : float; metrics : Metrics.snapshot }

type run = {
  meta : Run_meta.t option;
  sections : (string * section) list;
  timings : (string * float) list;
}

let schema = "ppbench/v2"

(* --------------------------------------------------------------- JSON *)

let run_to_json r =
  let meta = match r.meta with None -> [] | Some m -> [ ("meta", Run_meta.to_json m) ] in
  Json.Obj
    (("schema", Json.String schema)
     :: meta
    @ [
        ( "sections",
          Json.List
            (List.map
               (fun (id, s) ->
                 Json.Obj
                   [
                     ("id", Json.String id);
                     ("wall_s", Json.Float s.wall_s);
                     ("metrics", Metrics.to_json_value s.metrics);
                   ])
               r.sections) );
        ( "timings",
          Json.List
            (List.map
               (fun (name, ns) ->
                 Json.Obj
                   [ ("name", Json.String name); ("ns_per_run", Json.Float ns) ])
               r.timings) );
      ])

let float_field fields k =
  match List.assoc_opt k fields with
  | Some (Json.Float f) -> Ok f
  | Some (Json.Int n) -> Ok (float_of_int n)
  | _ -> Error (Printf.sprintf "missing float field %S" k)

let section_of_json = function
  | Json.Obj fields ->
    let ( let* ) = Result.bind in
    let* id =
      match List.assoc_opt "id" fields with
      | Some (Json.String id) -> Ok id
      | _ -> Error "section: missing string field \"id\""
    in
    let* wall_s = float_field fields "wall_s" in
    let* metrics =
      match List.assoc_opt "metrics" fields with
      | Some j -> Metrics.of_json_value j
      | None -> Error (Printf.sprintf "section %s: missing \"metrics\"" id)
    in
    Ok (id, { wall_s; metrics })
  | _ -> Error "section must be a JSON object"

let timing_of_json = function
  | Json.Obj fields ->
    let ( let* ) = Result.bind in
    let* name =
      match List.assoc_opt "name" fields with
      | Some (Json.String s) -> Ok s
      | _ -> Error "timing: missing string field \"name\""
    in
    let* ns = float_field fields "ns_per_run" in
    Ok (name, ns)
  | _ -> Error "timing must be a JSON object"

let rec result_map f = function
  | [] -> Ok []
  | x :: rest ->
    (match f x with
     | Error _ as e -> e
     | Ok y ->
       (match result_map f rest with Ok ys -> Ok (y :: ys) | Error _ as e -> e))

let run_of_json = function
  | Json.Obj fields ->
    let ( let* ) = Result.bind in
    let* () =
      match List.assoc_opt "schema" fields with
      | Some (Json.String s) when s = schema -> Ok ()
      | Some (Json.String s) -> Error (Printf.sprintf "unknown schema %S" s)
      | _ -> Error "missing \"schema\" field"
    in
    let* meta =
      match List.assoc_opt "meta" fields with
      | None -> Ok None
      | Some j -> Result.map Option.some (Run_meta.of_json j)
    in
    let* sections =
      match List.assoc_opt "sections" fields with
      | Some (Json.List l) -> result_map section_of_json l
      | _ -> Error "missing \"sections\" list"
    in
    let* timings =
      match List.assoc_opt "timings" fields with
      | Some (Json.List l) -> result_map timing_of_json l
      | None -> Ok []
      | Some _ -> Error "\"timings\" must be a list"
    in
    Ok { meta; sections; timings }
  | _ -> Error "run must be a JSON object"

let parse_run s =
  match Json.parse s with Error e -> Error e | Ok j -> run_of_json j

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> parse_run contents
  | exception Sys_error e -> Error e

(* ------------------------------------------------------------- ledger *)

let ledger_file dir = Filename.concat dir "runs.jsonl"

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let append ~dir run =
  mkdir_p dir;
  let path = ledger_file dir in
  let oc =
    Out_channel.open_gen [ Open_append; Open_creat; Open_text ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> Out_channel.close oc)
    (fun () ->
      Out_channel.output_string oc (Json.to_string (run_to_json run));
      Out_channel.output_char oc '\n')

let load_ledger dir =
  let path = ledger_file dir in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents ->
    let lines =
      List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' contents)
    in
    (* A malformed line — typically the tail of an append truncated by a
       crash or a full disk — is skipped and counted, never fatal: the
       ledger's good runs must stay readable after a bad shutdown. *)
    let rec go acc skipped = function
      | [] -> Ok (List.rev acc, skipped)
      | line :: rest ->
        (match parse_run line with
         | Ok r -> go (r :: acc) skipped rest
         | Error _ -> go acc (skipped + 1) rest)
    in
    go [] 0 lines

(* ------------------------------------------------------------ medians *)

(* The lower median of actually-observed values: for counters this
   keeps the oracle an integer a run really produced, never an average
   of two. *)
let lower_median compare xs =
  match List.sort compare xs with
  | [] -> None
  | sorted -> List.nth_opt sorted ((List.length sorted - 1) / 2)

let median_v name runs_vs =
  match runs_vs with
  | [] -> None
  | Metrics.Counter _ :: _ ->
    let ints =
      List.filter_map (function Metrics.Counter n -> Some n | _ -> None) runs_vs
    in
    Option.map (fun n -> (name, Metrics.Counter n)) (lower_median Int.compare ints)
  | Metrics.Gauge _ :: _ ->
    let fs =
      List.filter_map (function Metrics.Gauge f -> Some f | _ -> None) runs_vs
    in
    Option.map (fun f -> (name, Metrics.Gauge f)) (lower_median Float.compare fs)
  | Metrics.Histogram { bounds; _ } :: _ ->
    (* elementwise lower medians over same-shaped histograms: exact
       when the runs agree, which is the deterministic case the
       regression oracle relies on *)
    let hs =
      List.filter_map
        (function
          | Metrics.Histogram { bounds = b; counts; sum; count } when b = bounds ->
            Some (counts, sum, count)
          | _ -> None)
        runs_vs
    in
    (match hs with
     | [] -> None
     | (first_counts, _, _) :: _ ->
       let nth_counts i = List.map (fun (counts, _, _) -> counts.(i)) hs in
       let counts =
         Array.init (Array.length first_counts) (fun i ->
             Option.value ~default:0 (lower_median Int.compare (nth_counts i)))
       in
       let sum =
         Option.value ~default:0.0
           (lower_median Float.compare (List.map (fun (_, s, _) -> s) hs))
       in
       let count =
         Option.value ~default:0
           (lower_median Int.compare (List.map (fun (_, _, c) -> c) hs))
       in
       Some (name, Metrics.Histogram { bounds; counts; sum; count }))

let median_run runs =
  match runs with
  | [] -> Error "median of an empty ledger"
  | _ ->
    let last = List.nth runs (List.length runs - 1) in
    let sections =
      List.map
        (fun (id, last_sec) ->
          let secs =
            List.filter_map (fun r -> List.assoc_opt id r.sections) runs
          in
          let wall_s =
            Option.value ~default:last_sec.wall_s
              (lower_median Float.compare (List.map (fun s -> s.wall_s) secs))
          in
          let metrics =
            List.filter_map
              (fun (name, _) ->
                median_v name
                  (List.filter_map
                     (fun s -> List.assoc_opt name s.metrics)
                     secs))
              last_sec.metrics
          in
          (id, { wall_s; metrics }))
        last.sections
    in
    let timings =
      List.map
        (fun (name, last_ns) ->
          let ns =
            Option.value ~default:last_ns
              (lower_median Float.compare
                 (List.filter_map (fun r -> List.assoc_opt name r.timings) runs))
          in
          (name, ns))
        last.timings
    in
    Ok { meta = None; sections; timings }

(* ---------------------------------------------------------- rendering *)

let spark_levels = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

let sparkline xs =
  match xs with
  | [] -> ""
  | _ ->
    let lo = List.fold_left Float.min infinity xs in
    let hi = List.fold_left Float.max neg_infinity xs in
    let span = hi -. lo in
    String.concat ""
      (List.map
         (fun x ->
           let level =
             if span <= 0.0 then 3
             else
               Stdlib.min 7
                 (int_of_float (Float.of_int 8 *. ((x -. lo) /. span)))
           in
           spark_levels.(level))
         xs)

let series_of runs ~section ~metric =
  List.filter_map
    (fun r ->
      match List.assoc_opt section r.sections with
      | None -> None
      | Some s ->
        (match metric with
         | None -> Some s.wall_s
         | Some name ->
           (match List.assoc_opt name s.metrics with
            | Some (Metrics.Counter n) -> Some (float_of_int n)
            | Some (Metrics.Gauge f) -> Some f
            | Some (Metrics.Histogram { count; _ }) -> Some (float_of_int count)
            | None -> None)))
    runs

let stats xs =
  let med = Option.value ~default:nan (lower_median Float.compare xs) in
  let last = match List.rev xs with [] -> nan | x :: _ -> x in
  (med, last)

let drifting_counters runs id =
  let last_sec = List.rev runs |> List.find_map (fun r -> List.assoc_opt id r.sections) in
  match last_sec with
  | None -> ([], 0)
  | Some sec ->
    let counters =
      List.filter_map
        (fun (name, v) ->
          match v with Metrics.Counter _ -> Some name | _ -> None)
        sec.metrics
    in
    let drifting =
      List.filter
        (fun name ->
          let series = series_of runs ~section:id ~metric:(Some name) in
          match series with
          | [] | [ _ ] -> false
          | x :: rest -> List.exists (fun y -> y <> x) rest)
        counters
    in
    (drifting, List.length counters)

let render_history ?(markdown = false) ?sections runs =
  let buf = Buffer.create 1024 in
  let ids =
    let all =
      List.concat_map (fun r -> List.map fst r.sections) runs
      |> List.sort_uniq String.compare
    in
    match sections with
    | None -> all
    | Some wanted -> List.filter (fun id -> List.mem id wanted) all
  in
  let n_runs = List.length runs in
  if markdown then begin
    Buffer.add_string buf
      "| section | runs | wall_s (median) | trend | drifting counters |\n";
    Buffer.add_string buf "|---|---|---|---|---|\n";
    List.iter
      (fun id ->
        let walls = series_of runs ~section:id ~metric:None in
        let med, _ = stats walls in
        let drifting, total = drifting_counters runs id in
        Printf.bprintf buf "| %s | %d | %.3f | %s | %s |\n" id
          (List.length walls) med (sparkline walls)
          (if drifting = [] then Printf.sprintf "none of %d" total
           else String.concat ", " drifting))
      ids
  end
  else begin
    Printf.bprintf buf "ledger: %d run%s\n" n_runs (if n_runs = 1 then "" else "s");
    List.iter
      (fun id ->
        let walls = series_of runs ~section:id ~metric:None in
        let med, last = stats walls in
        let drifting, total = drifting_counters runs id in
        Printf.bprintf buf "== %s == (%d run%s)\n" id (List.length walls)
          (if List.length walls = 1 then "" else "s");
        Printf.bprintf buf "  wall_s  %s  median %.3f  last %.3f\n"
          (sparkline walls) med last;
        if total > 0 then
          if drifting = [] then
            Printf.bprintf buf "  counters: all %d deterministic across runs\n"
              total
          else
            List.iter
              (fun name ->
                let series = series_of runs ~section:id ~metric:(Some name) in
                Printf.bprintf buf "  counter %s DRIFTS  %s  last %.0f\n" name
                  (sparkline series)
                  (match List.rev series with [] -> nan | x :: _ -> x))
              drifting)
      ids
  end;
  Buffer.contents buf
