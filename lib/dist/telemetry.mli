(** The coordinator's per-worker telemetry registry: who is connected
    from where, when each worker was last heard, its estimated
    monotonic clock offset, its accumulated metric deltas, and counts
    of chunks/events it produced. Pure observability — nothing here
    feeds scheduling or results, so the scan's determinism contract
    holds with telemetry on or off.

    Thread-safety: mutated by the coordinator's select loop, read by
    the {!Obs.Export} writer thread through {!fleet}; every operation
    takes the registry mutex. *)

type t

type summary = {
  s_worker : string;
  s_host : string;
  s_pid : int;
  s_chunks_done : int;
  s_events : int;  (** forwarded event lines ingested *)
  s_offset_s : float;  (** clock-offset estimate; 0 when never sampled *)
  s_metrics : Obs.Metrics.snapshot;  (** accumulated heartbeat deltas *)
}
(** One worker's totals, as surfaced in {!Coordinator.stats}. *)

val create : unit -> t

val join :
  t ->
  worker:string ->
  host:string ->
  pid:int ->
  sent_s:float ->
  now:float ->
  unit
(** Record a {!Wire.Hello}: identity plus the first clock-offset
    sample. Re-joining updates in place. *)

val seen : t -> worker:string -> now:float -> unit

val heartbeat :
  t ->
  worker:string ->
  sent_s:float ->
  metrics:Obs.Json.t option ->
  now:float ->
  unit
(** Record a beat: liveness, an offset sample, and the metric delta
    merged into the worker's accumulated snapshot
    ({!Obs.Metrics.merge}). Malformed metric payloads are dropped. *)

val chunk_done : t -> worker:string -> now:float -> unit
val add_leased : t -> worker:string -> n:int -> now:float -> unit
val clear_leased : t -> worker:string -> unit
val note_events : t -> worker:string -> n:int -> now:float -> unit

val offset : t -> worker:string -> float
(** Min-filtered offset estimate: every stamped message samples
    [recv - sent = offset + delay] with [delay >= 0], so the minimum
    converges on the true offset from above (0 for same-host workers
    sharing CLOCK_MONOTONIC, modulo one delivery delay). 0 when never
    sampled. *)

val align_line :
  offset_s:float ->
  origin_s:float ->
  sink_origin_s:float ->
  tags:(string * Obs.Json.t) list ->
  string ->
  Obs.Json.t option
(** Pure helper behind {!align_events} (exposed for the clock-skew
    property tests): rewrite one forwarded record line's [ts_s] from
    the sender's basis ([origin_s + ts_s] absolute, [+ offset_s] onto
    the receiver's clock, [- sink_origin_s] back to sink-relative) and
    append [tags] (existing fields win). [None] for header lines and
    non-record lines. *)

val align_events :
  t ->
  worker:string ->
  origin_s:float ->
  sink_origin_s:float ->
  string list ->
  Obs.Json.t list
(** Realign a {!Wire.Events} batch with [worker]'s current offset
    estimate, tagging each record with [worker]/[host]/[wpid] —
    ready for {!Obs.Events.inject} into the merged log. *)

val fleet : t -> now:float -> Obs.Export.fleet_worker list
(** The rows for {!Obs.Export.set_fleet}, join order, with
    [fw_last_seen_s] rendered as staleness ([now - last message]). *)

val summaries : t -> summary list
(** Join-order totals for {!Coordinator.stats}. *)
