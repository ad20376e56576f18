type span = {
  name : string;
  cat : string;
  ts_us : float;
  dur_us : float;
  tid : int;
  sid : int;
  parent : int;
  args : (string * string) list;
}

type phase = {
  ph_name : string;
  ph_count : int;
  ph_total_s : float;
  ph_self_s : float;
  ph_max_s : float;
}

type domain_row = {
  d_tid : int;
  d_spans : int;
  d_busy_s : float;
  d_util : float;
  d_timeline : float list;
}

type path_step = {
  p_name : string;
  p_tid : int;
  p_dur_s : float;
  p_self_s : float;
}

type chunk_group = {
  g_section : string;
  g_count : int;
  g_median_s : float;
  g_p99_s : float;
  g_max_s : float;
  g_straggler : bool;
  g_worst : (string * float) list;
  g_sized : bool;
  g_size_spread : float;
  g_task_median_s : float;
  g_task_max_s : float;
  g_task_straggler : bool;
}

type report = {
  source : string;
  wall_s : float;
  span_count : int;
  instant_count : int;
  domain_count : int;
  total_busy_s : float;
  parallelism : float;
  has_parents : bool;
  phases : phase list;
  domains : domain_row list;
  critical_path : path_step list;
  chunk_groups : chunk_group list;
}

(* ------------------------------------------------------------- parsing *)

let field name fields = List.assoc_opt name fields

let number = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let int_field name fields =
  match field name fields with Some (Json.Int i) -> i | _ -> 0

let string_field name fields =
  match field name fields with Some (Json.String s) -> s | _ -> ""

let span_of_fields fields =
  let args =
    match field "args" fields with
    | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) ->
          match v with Json.String s -> Some (k, s) | _ -> None)
        kvs
    | _ -> []
  in
  {
    name = string_field "name" fields;
    cat = string_field "cat" fields;
    ts_us = Option.value ~default:0.0 (number (field "ts" fields));
    dur_us = Option.value ~default:0.0 (number (field "dur" fields));
    tid = int_field "tid" fields;
    sid = int_field "sid" fields;
    parent = int_field "parent" fields;
    args;
  }

let spans_of_json = function
  | Json.List items ->
    let spans = ref [] and instants = ref 0 in
    List.iter
      (fun item ->
        match item with
        | Json.Obj fields ->
          (match field "ph" fields with
           | Some (Json.String "X") -> spans := span_of_fields fields :: !spans
           | Some (Json.String "i") -> incr instants
           | _ -> ())
        | _ -> ())
      items;
    Ok (List.rev !spans, !instants)
  | _ -> Error "trace must be a JSON array of events"

(* ------------------------------------------------------------ analysis *)

let s_of_us us = us /. 1e6

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) rank))
  end

let section_of_name name =
  match String.rindex_opt name '.' with
  | Some i when Filename.check_suffix name ".chunk" -> String.sub name 0 i
  | _ -> name

(* pool chunk spans record their task range as args lo/hi, hi
   inclusive — the task count normalises chunk durations when the
   schedule makes chunk sizes uneven (guided self-scheduling) *)
let span_tasks sp =
  match (List.assoc_opt "lo" sp.args, List.assoc_opt "hi" sp.args) with
  | Some lo, Some hi ->
    (match (int_of_string_opt lo, int_of_string_opt hi) with
     | Some lo, Some hi when hi >= lo -> Some (hi - lo + 1)
     | _ -> None)
  | _ -> None

let chunk_label sp =
  match List.assoc_opt "chunk" sp.args with
  | Some c ->
    let round =
      match List.assoc_opt "round" sp.args with
      | Some r -> Printf.sprintf " (round %s)" r
      | None -> ""
    in
    "chunk " ^ c ^ round
  | None ->
    (match (List.assoc_opt "lo" sp.args, List.assoc_opt "hi" sp.args) with
     | Some lo, Some hi -> Printf.sprintf "tasks %s..%s" lo hi
     | _ -> if sp.sid <> 0 then Printf.sprintf "span %d" sp.sid else "span")

let timeline_buckets = 48

(* a chunk is a straggler when it takes more than this many medians *)
let straggler_factor = 2.0

let analyse ?(source = "") (spans, instant_count) =
  let span_count = List.length spans in
  let by_sid = Hashtbl.create (2 * span_count + 1) in
  List.iter (fun sp -> if sp.sid <> 0 then Hashtbl.replace by_sid sp.sid sp) spans;
  let has_parents = List.exists (fun sp -> sp.parent <> 0) spans in
  (* a span is a root when it has no enclosing span in this trace —
     parent 0, or a parent id the file does not contain (truncated
     trace); roots are what busy time and timelines are built from *)
  let is_root sp = sp.parent = 0 || not (Hashtbl.mem by_sid sp.parent) in
  let t_min, t_max =
    List.fold_left
      (fun (lo, hi) sp ->
        (Float.min lo sp.ts_us, Float.max hi (sp.ts_us +. sp.dur_us)))
      (infinity, 0.0) spans
  in
  let t_min = if span_count = 0 then 0.0 else t_min in
  let wall_us = Float.max 0.0 (t_max -. t_min) in
  (* self time: duration minus the duration of direct children, linked
     by parent ids (clamped at zero against clock jitter); without
     parent ids (a pre-v7 trace) self degrades to total *)
  let child_us = Hashtbl.create (2 * span_count + 1) in
  List.iter
    (fun sp ->
      if sp.parent <> 0 && Hashtbl.mem by_sid sp.parent then
        Hashtbl.replace child_us sp.parent
          (sp.dur_us
           +. Option.value ~default:0.0 (Hashtbl.find_opt child_us sp.parent)))
    spans;
  let self_us sp =
    Float.max 0.0
      (sp.dur_us -. Option.value ~default:0.0 (Hashtbl.find_opt child_us sp.sid))
  in
  (* phases: per span name *)
  let phase_tbl = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      let c, tot, slf, mx =
        Option.value ~default:(0, 0.0, 0.0, 0.0)
          (Hashtbl.find_opt phase_tbl sp.name)
      in
      Hashtbl.replace phase_tbl sp.name
        ( c + 1,
          tot +. sp.dur_us,
          slf +. self_us sp,
          Float.max mx sp.dur_us ))
    spans;
  let phases =
    Hashtbl.fold
      (fun name (c, tot, slf, mx) acc ->
        {
          ph_name = name;
          ph_count = c;
          ph_total_s = s_of_us tot;
          ph_self_s = s_of_us slf;
          ph_max_s = s_of_us mx;
        }
        :: acc)
      phase_tbl []
    |> List.sort (fun a b ->
           match compare b.ph_self_s a.ph_self_s with
           | 0 -> compare a.ph_name b.ph_name
           | c -> c)
  in
  (* domains: busy time and a bucketed utilization timeline over roots *)
  let dom_tbl = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      let spans_n, busy, buckets =
        match Hashtbl.find_opt dom_tbl sp.tid with
        | Some v -> v
        | None -> (0, 0.0, Array.make timeline_buckets 0.0)
      in
      let busy = if is_root sp then busy +. sp.dur_us else busy in
      if is_root sp && wall_us > 0.0 then begin
        let bw = wall_us /. float_of_int timeline_buckets in
        let b0 = (sp.ts_us -. t_min) /. bw in
        let b1 = (sp.ts_us +. sp.dur_us -. t_min) /. bw in
        let i0 = Stdlib.max 0 (int_of_float b0) in
        let i1 =
          Stdlib.min (timeline_buckets - 1) (int_of_float (Float.ceil b1) - 1)
        in
        for i = i0 to i1 do
          let lo = Float.max b0 (float_of_int i) in
          let hi = Float.min b1 (float_of_int (i + 1)) in
          if hi > lo then buckets.(i) <- Float.min 1.0 (buckets.(i) +. (hi -. lo))
        done
      end;
      Hashtbl.replace dom_tbl sp.tid (spans_n + 1, busy, buckets))
    spans;
  let wall_s = s_of_us wall_us in
  let domains =
    Hashtbl.fold
      (fun tid (spans_n, busy, buckets) acc ->
        {
          d_tid = tid;
          d_spans = spans_n;
          d_busy_s = s_of_us busy;
          d_util = (if wall_s > 0.0 then s_of_us busy /. wall_s else 0.0);
          d_timeline = Array.to_list buckets;
        }
        :: acc)
      dom_tbl []
    |> List.sort (fun a b -> compare a.d_tid b.d_tid)
  in
  let total_busy_s = List.fold_left (fun a d -> a +. d.d_busy_s) 0.0 domains in
  let parallelism = if wall_s > 0.0 then total_busy_s /. wall_s else 0.0 in
  (* critical path: the longest root, then repeatedly the longest
     direct child — the chain an optimiser has to shorten *)
  let children = Hashtbl.create (2 * span_count + 1) in
  List.iter
    (fun sp ->
      if not (is_root sp) then
        Hashtbl.replace children sp.parent
          (sp :: Option.value ~default:[] (Hashtbl.find_opt children sp.parent)))
    spans;
  let longest l =
    List.fold_left
      (fun best sp ->
        match best with
        | Some b when b.dur_us >= sp.dur_us -> best
        | _ -> Some sp)
      None l
  in
  let critical_path =
    let rec descend acc sp =
      let acc =
        {
          p_name = sp.name;
          p_tid = sp.tid;
          p_dur_s = s_of_us sp.dur_us;
          p_self_s = s_of_us (self_us sp);
        }
        :: acc
      in
      match
        longest (Option.value ~default:[] (Hashtbl.find_opt children sp.sid))
      with
      | Some child -> descend acc child
      | None -> List.rev acc
    in
    match longest (List.filter is_root spans) with
    | Some root -> descend [] root
    | None -> []
  in
  (* chunk groups: every span name occurring >= 4 times is a fan-out
     section; compare its duration distribution and name the worst
     members so a straggling pool chunk is one lookup away *)
  let groups =
    Hashtbl.fold
      (fun name (c, _, _, _) acc -> if c >= 4 then name :: acc else acc)
      phase_tbl []
    |> List.sort compare
  in
  let chunk_groups =
    List.map
      (fun name ->
        let members = List.filter (fun sp -> sp.name = name) spans in
        let durs =
          Array.of_list (List.sort compare (List.map (fun sp -> sp.dur_us) members))
        in
        let median = percentile durs 0.5 in
        let p99 = percentile durs 0.99 in
        let mx = durs.(Array.length durs - 1) in
        let worst =
          List.sort (fun a b -> compare b.dur_us a.dur_us) members
          |> List.filteri (fun i _ -> i < 3)
          |> List.map (fun sp -> (chunk_label sp, s_of_us sp.dur_us))
        in
        (* size-normalised view: with every member carrying a task
           range, per-task times separate "this chunk was bigger"
           (schedule imbalance, what the guided schedule removes) from
           "this chunk was slow" (a genuine straggler) *)
        let tasked = List.filter_map (fun sp -> Option.map (fun t -> (sp, t)) (span_tasks sp)) members in
        let sized = List.length tasked = List.length members && members <> [] in
        let size_spread, task_median, task_mx =
          if not sized then (1.0, 0.0, 0.0)
          else begin
            let counts = List.map snd tasked in
            let mn = List.fold_left Stdlib.min max_int counts in
            let mx_c = List.fold_left Stdlib.max 0 counts in
            let per_task =
              Array.of_list
                (List.sort compare
                   (List.map
                      (fun (sp, t) -> sp.dur_us /. float_of_int t)
                      tasked))
            in
            ( (if mn > 0 then float_of_int mx_c /. float_of_int mn else 1.0),
              percentile per_task 0.5,
              per_task.(Array.length per_task - 1) )
          end
        in
        {
          g_section = section_of_name name;
          g_count = List.length members;
          g_median_s = s_of_us median;
          g_p99_s = s_of_us p99;
          g_max_s = s_of_us mx;
          g_straggler = median > 0.0 && mx > straggler_factor *. median;
          g_worst = worst;
          g_sized = sized;
          g_size_spread = size_spread;
          g_task_median_s = s_of_us task_median;
          g_task_max_s = s_of_us task_mx;
          g_task_straggler =
            sized && task_median > 0.0 && task_mx > straggler_factor *. task_median;
        })
      groups
  in
  {
    source;
    wall_s;
    span_count;
    instant_count;
    domain_count = List.length domains;
    total_busy_s;
    parallelism;
    has_parents;
    phases;
    domains;
    critical_path;
    chunk_groups;
  }

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents ->
    (match Json.parse contents with
     | Error e -> Error (Printf.sprintf "%s: %s" path e)
     | Ok j ->
       Result.map
         (fun parsed -> analyse ~source:path parsed)
         (spans_of_json j))

(* ----------------------------------------------------------- rendering *)

let pct f = 100.0 *. f

let to_markdown r =
  let buf = Buffer.create 2048 in
  let self_sum = List.fold_left (fun a p -> a +. p.ph_self_s) 0.0 r.phases in
  Printf.bprintf buf "# Trace report%s\n\n"
    (if r.source = "" then "" else Printf.sprintf " — %s" r.source);
  Printf.bprintf buf
    "- wall %.3f s, %d spans (+%d instants) across %d domain%s\n" r.wall_s
    r.span_count r.instant_count r.domain_count
    (if r.domain_count = 1 then "" else "s");
  Printf.bprintf buf
    "- busy %.3f s -> parallelism %.2fx; per-phase self times sum to %.3f s (%.1f%% of busy)\n"
    r.total_busy_s r.parallelism self_sum
    (if r.total_busy_s > 0.0 then pct (self_sum /. r.total_busy_s) else 0.0);
  if not r.has_parents then
    Printf.bprintf buf
      "- no parent ids in this trace (pre-v7 recording): self time degrades to total time\n";
  Printf.bprintf buf "\n## Phases (by self time)\n\n";
  Printf.bprintf buf
    "| span | count | total s | self s | self %% | max s |\n|---|---:|---:|---:|---:|---:|\n";
  List.iter
    (fun p ->
      Printf.bprintf buf "| %s | %d | %.3f | %.3f | %.1f | %.3f |\n" p.ph_name
        p.ph_count p.ph_total_s p.ph_self_s
        (if r.total_busy_s > 0.0 then pct (p.ph_self_s /. r.total_busy_s)
         else 0.0)
        p.ph_max_s)
    r.phases;
  if r.critical_path <> [] then begin
    Printf.bprintf buf "\n## Critical path\n\n";
    Printf.bprintf buf "| depth | span | domain | total s | self s |\n|---:|---|---:|---:|---:|\n";
    List.iteri
      (fun i st ->
        Printf.bprintf buf "| %d | %s | %d | %.3f | %.3f |\n" i st.p_name
          st.p_tid st.p_dur_s st.p_self_s)
      r.critical_path
  end;
  if r.domains <> [] then begin
    Printf.bprintf buf "\n## Domains\n\n";
    Printf.bprintf buf
      "| domain | spans | busy s | util %% | timeline |\n|---:|---:|---:|---:|---|\n";
    List.iter
      (fun d ->
        Printf.bprintf buf "| %d | %d | %.3f | %.1f | %s |\n" d.d_tid d.d_spans
          d.d_busy_s (pct d.d_util)
          (History.sparkline d.d_timeline))
      r.domains
  end;
  if r.chunk_groups <> [] then begin
    Printf.bprintf buf "\n## Fan-out sections (chunk duration spread)\n\n";
    Printf.bprintf buf
      "| section | chunks | median s | p99 s | max s | max/med | µs/task med | µs/task max | stragglers |\n|---|---:|---:|---:|---:|---:|---:|---:|---|\n";
    List.iter
      (fun g ->
        let ratio = if g.g_median_s > 0.0 then g.g_max_s /. g.g_median_s else 0.0 in
        let worst =
          if g.g_straggler || g.g_task_straggler then
            String.concat ", "
              (List.map
                 (fun (label, d) -> Printf.sprintf "%s (%.3f s)" label d)
                 g.g_worst)
          else "-"
        in
        let task_med, task_max =
          if g.g_sized then
            ( Printf.sprintf "%.2f" (g.g_task_median_s *. 1e6),
              Printf.sprintf "%.2f" (g.g_task_max_s *. 1e6) )
          else ("-", "-")
        in
        Printf.bprintf buf
          "| %s | %d | %.4f | %.4f | %.4f | %.1fx | %s | %s | %s |\n"
          g.g_section g.g_count g.g_median_s g.g_p99_s g.g_max_s ratio task_med
          task_max worst)
      r.chunk_groups;
    if List.exists (fun g -> g.g_size_spread > 1.0) r.chunk_groups then
      Printf.bprintf buf
        "\nChunk sizes vary (descending-size schedule): the µs/task columns \
         normalise the spread — a section whose raw max/med is high but \
         whose per-task times are flat is schedule imbalance (what a guided \
         schedule trims), not slow work.\n"
  end;
  Buffer.contents buf

let to_json r =
  let self_sum = List.fold_left (fun a p -> a +. p.ph_self_s) 0.0 r.phases in
  Json.Obj
    [
      ("schema", Json.String "pptrace-report/v1");
      ("source", Json.String r.source);
      ("wall_s", Json.Float r.wall_s);
      ("spans", Json.Int r.span_count);
      ("instants", Json.Int r.instant_count);
      ("domains", Json.Int r.domain_count);
      ("busy_s", Json.Float r.total_busy_s);
      ("self_sum_s", Json.Float self_sum);
      ("parallelism", Json.Float r.parallelism);
      ("has_parents", Json.Bool r.has_parents);
      ( "phases",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("span", Json.String p.ph_name);
                   ("count", Json.Int p.ph_count);
                   ("total_s", Json.Float p.ph_total_s);
                   ("self_s", Json.Float p.ph_self_s);
                   ("max_s", Json.Float p.ph_max_s);
                 ])
             r.phases) );
      ( "critical_path",
        Json.List
          (List.map
             (fun st ->
               Json.Obj
                 [
                   ("span", Json.String st.p_name);
                   ("domain", Json.Int st.p_tid);
                   ("total_s", Json.Float st.p_dur_s);
                   ("self_s", Json.Float st.p_self_s);
                 ])
             r.critical_path) );
      ( "domain_rows",
        Json.List
          (List.map
             (fun d ->
               Json.Obj
                 [
                   ("domain", Json.Int d.d_tid);
                   ("spans", Json.Int d.d_spans);
                   ("busy_s", Json.Float d.d_busy_s);
                   ("utilization", Json.Float d.d_util);
                   ( "timeline",
                     Json.List (List.map (fun f -> Json.Float f) d.d_timeline)
                   );
                 ])
             r.domains) );
      ( "fanout_sections",
        Json.List
          (List.map
             (fun g ->
               Json.Obj
                 [
                   ("section", Json.String g.g_section);
                   ("chunks", Json.Int g.g_count);
                   ("median_s", Json.Float g.g_median_s);
                   ("p99_s", Json.Float g.g_p99_s);
                   ("max_s", Json.Float g.g_max_s);
                   ("straggler", Json.Bool g.g_straggler);
                   ("sized", Json.Bool g.g_sized);
                   ("size_spread", Json.Float g.g_size_spread);
                   ("task_median_s", Json.Float g.g_task_median_s);
                   ("task_max_s", Json.Float g.g_task_max_s);
                   ("task_straggler", Json.Bool g.g_task_straggler);
                   ( "worst",
                     Json.List
                       (List.map
                          (fun (label, d) ->
                            Json.Obj
                              [
                                ("label", Json.String label);
                                ("dur_s", Json.Float d);
                              ])
                          g.g_worst) );
                 ])
             r.chunk_groups) );
    ]
