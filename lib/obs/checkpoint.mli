(** Crash-safe checkpoint/resume snapshots for chunked scans, and the
    shared ledger the distributed scan coordinates over.

    A checkpoint records, for one fixed chunk partition of a scan's
    task space, which chunks have completed and an opaque JSON blob of
    accumulator state per completed chunk, plus a hash of the scan
    configuration (everything that affects the partition or the
    per-chunk content — including the RNG scheme for sampled scans).
    Snapshots are written with the tmp+rename pattern, so a crash
    mid-write can never corrupt the previous snapshot; a resumed scan
    skips the completed chunks, restores their accumulators and — when
    per-chunk work is index-deterministic — reproduces the
    uninterrupted aggregate byte for byte.

    The coordination substrate is a {e lease table} (which worker
    currently holds each incomplete chunk) and an {e epoch} counter
    bumped every time a coordinator takes the ledger over, so results
    from workers granted in a previous life are recognisably stale.
    Leases on disk are advisory — a chunk not marked done is reassigned
    by the next coordinator regardless — but they let tooling show who
    was working on what at the moment of a crash.

    File format: one [ppcheckpoint/v2] JSON object per file; a file
    without [epoch] and [leases] does not load. *)

type lease = { holder : string; lease_epoch : int }

type t = {
  config_hash : string;
  config : Json.t;  (** the hashed configuration, kept readable *)
  total_chunks : int;
  state : Json.t option array;  (** slot per chunk; [Some] = completed *)
  mutable epoch : int;  (** coordinator take-over counter *)
  leases : lease option array;  (** slot per chunk; [Some] = leased out *)
}

val schema : string
(** ["ppcheckpoint/v2"]. *)

val hash_config : Json.t -> string
(** Hex digest of the canonical rendering of a configuration object. *)

val create : config:Json.t -> total_chunks:int -> t
(** A fresh checkpoint with no completed chunks. *)

val mark_done : t -> int -> Json.t -> unit
(** Record chunk [i] as completed with the given accumulator state (and
    release any lease on it). *)

val is_done : t -> int -> bool
val chunk_state : t -> int -> Json.t option
val num_done : t -> int

(** {2 Leases and epochs} *)

val epoch : t -> int

val bump_epoch : t -> int
(** Increment the epoch — a coordinator does this once when it adopts
    the ledger — and return the new value. *)

val set_lease : t -> int -> holder:string -> unit
(** Record chunk [i] as leased to [holder] at the current epoch. *)

val clear_lease : t -> int -> unit

val lease : t -> int -> lease option

val leased_to : t -> holder:string -> int list
(** Chunks currently leased to [holder], in index order. *)

(** {2 Configuration mismatch}

    A snapshot only resumes the scan configuration that wrote it. When
    the fingerprints differ, callers raise {!Mismatch} carrying a
    field-by-field diff so the user learns {e which} flag changed
    instead of staring at two hashes. *)

type field_diff = {
  field : string;
  expected : string option;  (** in the running scan's configuration *)
  found : string option;  (** in the snapshot on disk *)
}

exception Mismatch of { path : string; diff : field_diff list }

val config_diff : expected:Json.t -> found:Json.t -> field_diff list
(** Top-level field diff of two configuration objects (equal fields
    omitted; non-object configurations degrade to one whole-value
    entry). Empty means the objects are equal — or differ only in ways
    invisible at the top level. *)

val mismatch_message : path:string -> field_diff list -> string
(** Human-readable rendering, one line per differing field. Also
    installed as the [Printexc] printer for {!Mismatch}. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

val save : path:string -> t -> unit
(** Atomic tmp+rename write of the snapshot.
    @raise Sys_error when the write fails. *)

val load : string -> (t, string) result

(** A throttled, thread-safe writer: workers report completed chunks
    from any domain; a snapshot is written every [every_chunks]
    completions or [every_s] seconds, whichever comes first, and on
    {!flush}. Write failures (full disk, yanked directory) are swallowed
    in {!note_done} — a failing checkpoint must not kill the scan — and
    surface only in {!flush}. *)
type writer

val writer : ?every_chunks:int -> ?every_s:float -> path:string -> t -> writer
(** Defaults: [every_chunks = 64], [every_s = 30.0]. *)

val note_done : writer -> int -> Json.t -> unit
(** [note_done w i state] marks chunk [i] completed and snapshots the
    file if a threshold was crossed. Safe to call concurrently. *)

val flush : writer -> unit
(** Write a snapshot now (the final bitmap after a drain). *)
