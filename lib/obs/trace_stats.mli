(** Offline analytics over a recorded {!Trace} file: per-phase
    self/total time, per-domain utilization timelines, the critical
    path through the span forest, and fan-out (pool chunk) straggler
    detection. This is the half of observability that *interprets* —
    [ppreport trace FILE] renders a report without loading the trace
    into an external viewer.

    Span nesting comes from the [sid]/[parent] ids recorded since
    trace v7; on an older trace (no parent ids) self time degrades to
    total time and the report says so. *)

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
  ph_self_s : float;   (** total minus direct children, clamped at 0 *)
  ph_max_s : float;
}

type domain_row = {
  d_tid : int;
  d_spans : int;
  d_busy_s : float;    (** sum of root-span durations on this domain *)
  d_util : float;      (** busy / wall *)
  d_timeline : float list;  (** bucketed utilization in [0,1] *)
}

type path_step = {
  p_name : string;
  p_tid : int;
  p_dur_s : float;
  p_self_s : float;
}

type chunk_group = {
  g_section : string;  (** span name, [".chunk"] suffix stripped *)
  g_count : int;
  g_median_s : float;
  g_p99_s : float;
  g_max_s : float;
  g_straggler : bool;  (** max exceeds 2 x median *)
  g_worst : (string * float) list;
      (** up to 3 slowest members, labelled by chunk index (or task
          range) and duration *)
  g_sized : bool;
      (** every member span carries a task range ([lo]/[hi] args), so
          the per-task columns below are meaningful *)
  g_size_spread : float;
      (** largest member task count over smallest — 1.0 under a fixed
          chunk schedule, > 1 under guided self-scheduling *)
  g_task_median_s : float;  (** median of duration / task count *)
  g_task_max_s : float;
  g_task_straggler : bool;
      (** straggler {e after} normalising by chunk size: per-task max
          exceeds 2 x per-task median. A section straggling raw but
          not per-task is schedule imbalance (big chunks), which a
          descending-size schedule trims; straggling per-task is
          genuinely slow work *)
}

type report = {
  source : string;
  wall_s : float;
  span_count : int;
  instant_count : int;
  domain_count : int;
  total_busy_s : float;
  parallelism : float;     (** busy / wall *)
  has_parents : bool;
  phases : phase list;     (** sorted by self time, descending *)
  domains : domain_row list;
  critical_path : path_step list;  (** outermost first *)
  chunk_groups : chunk_group list;
}

val spans_of_json : Json.t -> (span list * int, string) result
(** Extract complete spans (and count instants) from a Chrome
    trace-event array; unknown event kinds are skipped. *)

val analyse : ?source:string -> span list * int -> report
(** Pure analysis (deterministic for a given trace), with 48 timeline
    buckets and a straggler factor of 2. *)

val load : string -> (report, string) result
(** Read, parse and analyse a trace file. *)

val to_markdown : report -> string
(** Render the report as GitHub-flavoured markdown tables; timelines
    use the {!History.sparkline} glyphs. Deterministic. *)

val to_json : report -> Json.t
(** Machine-readable rendering ([pptrace-report/v1]) so CI can archive
    the report next to the bench ledger. *)
