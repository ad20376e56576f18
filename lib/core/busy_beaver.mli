(** Empirical busy-beaver search (Definition 1 / Section 4.1): enumerate
    small protocols and measure the largest threshold any of them
    computes.

    The search enumerates deterministic, complete, leaderless protocols
    with [n] states and input state 0, decides each input up to a
    cutoff with the exact semantics, and keeps the protocols whose
    verdicts form a threshold pattern [0*1*]. Thresholds beyond the
    cutoff cannot be certified (Section 4.1 explains why this is
    fundamentally hard — it is VAS-reachability territory), so results
    are reported as {e apparent} busy-beaver values.

    The scan is a sharded pipeline: the code space is cut into
    fixed-size chunks, chunks are claimed dynamically by a domain pool
    ({!Pool}), and per-chunk partial results are reduced in chunk index
    order — so aggregates are byte-identical for every [jobs] and
    [chunk] setting. Symmetry pruning ({!Symmetry}) skips
    non-canonical codes and weights canonical ones by their orbit size,
    which preserves every aggregate exactly while verifying only one
    protocol per isomorphism class. *)

type scan_result = {
  num_protocols : int;       (** protocols enumerated (or sampled) *)
  num_threshold : int;       (** with a certified threshold pattern up to the cutoff *)
  num_reject_all : int;      (** reject every checked input (threshold may exceed cutoff) *)
  num_aborted : int;
      (** verdict unknown: the verifier hit its node budget
          ({!Configgraph.Too_many_configs}) or the [eta_budget_s] wall
          budget on these protocols *)
  best_eta : int;            (** largest threshold seen *)
  best : Population.t option;
  histogram : (int * int) list;  (** threshold value -> number of protocols *)
  completed_chunks : int;    (** chunks finished, restored ones included *)
  total_chunks : int;
  interrupted : bool;
      (** the scan stopped early — a signal or [should_stop] fired; the
          aggregates cover only the completed chunks *)
  task_errors : int;         (** failed chunk attempts (see {!Pool.stats}) *)
}

val scan :
  ?jobs:int ->
  ?chunk:int ->
  ?schedule:Pool.schedule ->
  ?prune:bool ->
  ?packed:bool ->
  ?max_input:int ->
  ?max_configs:int ->
  ?eta_budget_s:float ->
  ?sample:int * int ->
  ?checkpoint:string ->
  ?checkpoint_every_chunks:int ->
  ?checkpoint_every_s:float ->
  ?resume:bool ->
  ?should_stop:(unit -> bool) ->
  ?on_task_error:Pool.error_policy ->
  n:int ->
  unit ->
  scan_result
(** [scan ~n ()] enumerates all [P^P · 2^n] protocols, where
    [P = n(n+1)/2] (transition assignments times output maps). With
    [~sample:(count, seed)] a uniform random sample is scanned instead —
    required in practice for [n >= 4]; sampled codes are drawn with a
    per-index split of the seed, so sample [i] is the same regardless of
    [jobs]/[chunk].

    [?jobs] (default 1) domains share the scan; [?chunk] (default 1024)
    is the dynamic-scheduling granule. Any setting of either produces
    byte-identical aggregates. [?schedule] (default [`Fixed]) selects
    the {!Pool.schedule}: under [`Guided] chunk sizes descend from
    [chunk] to 1 (cutting the straggler tail on wide chunks) — the
    aggregate is still byte-identical, but the chunk partition (and so
    the checkpoint fingerprint) then depends on [jobs].
    [?prune] (default true) enables symmetry
    pruning: with it, [num_protocols] still counts the {e full} space
    (orbit-weighted), and [best] may be any member of the best orbit.
    [?packed] (default true) selects the packed configuration-graph
    representation in the verifier. Defaults: [max_input = 12],
    [max_configs = 60_000].

    {b Robustness.} [?eta_budget_s] caps the wall-clock spent verifying
    any single protocol; over-budget protocols count into [num_aborted]
    (unknown verdict) instead of killing the scan — note wall budgets
    make which protocols abort machine-dependent, so leave it off when
    byte-identical reruns matter. [?on_task_error] (default [`Fail]) is
    the {!Pool.run} fault policy for unexpected per-chunk exceptions.
    [?should_stop] is a cancellation token polled between chunks;
    {!Obs.Shutdown.requested} is always polled alongside it, so a
    SIGINT/SIGTERM delivered inside {!Obs.Shutdown.with_graceful} drains
    the scan cleanly ([interrupted] is then set).

    {b Checkpoint/resume.} With [?checkpoint:path] the scan snapshots
    its completed-chunk bitmap and per-chunk accumulators to [path]
    (atomic tmp+rename; every [?checkpoint_every_chunks], default 64, or
    [?checkpoint_every_s], default 30, whichever first, plus a final
    snapshot on every exit path). With [~resume:true] an existing
    snapshot is loaded first: completed chunks are skipped and their
    accumulators restored, and the finished aggregate is byte-identical
    to an uninterrupted run — chunk content depends only on the code
    index, and the reduce is in chunk-index order.
    @raise Obs.Checkpoint.Mismatch when resuming from a snapshot whose
    configuration fingerprint (n, cutoffs, chunk, sample seed/count, …)
    does not match — the exception carries a field-level diff of the
    two configurations.
    @raise Invalid_argument when the snapshot file is unreadable or
    malformed. *)

(** {2 Range-addressed scanning}

    The distributed scan's entry points: a {!plan} pins the entire scan
    configuration (code space, cutoffs, pruning, sampling, chunk
    partition), {!scan_chunk} runs one chunk of it to a serialised
    accumulator, and {!result_of_chunks} merges per-chunk accumulators
    — local or received over the wire — in index order. Two processes
    holding equal plans compute byte-identical accumulators for equal
    chunk indices, so a coordinator can hand chunk ranges to worker
    processes (fork or TCP), collect the JSON states, and reproduce the
    single-process [scan ~jobs:1] result byte for byte. {!scan} itself
    is built on the same functions. *)

type plan

val plan :
  ?jobs:int ->
  ?chunk:int ->
  ?schedule:Pool.schedule ->
  ?prune:bool ->
  ?packed:bool ->
  ?max_input:int ->
  ?max_configs:int ->
  ?eta_budget_s:float ->
  ?sample:int * int ->
  n:int ->
  unit ->
  plan
(** Same defaults as {!scan}. [jobs] shapes the partition only under
    [`Guided]. *)

val plan_config : plan -> Obs.Json.t
(** The canonical configuration object — what {!scan} fingerprints into
    checkpoints and what a coordinator sends to joining workers. *)

val plan_of_config : Obs.Json.t -> (plan, string) result
(** Rebuild a plan from {!plan_config} output: a worker process derives
    its entire scan — sample codes included — from the coordinator's
    welcome message, so the two cannot disagree. *)

val plan_chunks : plan -> int
(** Number of chunks in the partition. *)

val plan_total : plan -> int
(** Number of codes scanned (the task count). *)

val plan_chunk_range : plan -> int -> int * int
(** [plan_chunk_range p ci] is the code-index range [\[lo, hi)] of
    chunk [ci]. *)

val scan_chunk : plan -> int -> Obs.Json.t
(** Run chunk [ci] from a fresh accumulator and serialise the result —
    deterministic: equal plans and indices give byte-equal JSON in any
    process. *)

val result_of_chunks :
  ?interrupted:bool -> plan -> Obs.Json.t option array -> scan_result
(** Merge one accumulator slot per chunk ([None] = chunk not run) in
    index order; [task_errors] is 0. With every slot filled by
    {!scan_chunk} output, the result equals the [scan ~jobs:1] result
    byte for byte.
    @raise Invalid_argument on a malformed accumulator or a slot-count
    mismatch. *)

val num_deterministic_protocols : int -> int
(** [P^P · 2^n] (may overflow for [n >= 5]; the busy beaver of
    enumeration itself). *)

val protocol_of_code :
  n:int -> assignment:int -> output_bits:int -> Population.t
(** Decode one point of the code space: [assignment] is a base-[P]
    number whose digit [i] names the target pair of ordered-pair [i];
    [output_bits] is the output bitmap ([bit s] set iff state [s] maps
    to true). This is the enumeration {!scan} walks. *)

val iter_protocols :
  ?sample:int * int -> n:int -> (Population.t -> unit) -> unit
(** Enumerate (or uniformly sample) the same deterministic complete
    leaderless protocol space that {!scan} searches, calling the
    function on each protocol. Used by {!Section_4_1}. *)

(** The symmetry group of the code space: state permutations fixing the
    input state 0 (isomorphic to [S_{n-1}]). Relabelling states by such
    a permutation yields an isomorphic protocol — same decided
    predicate, same threshold — so {!scan} only verifies the
    lexicographically least code of each orbit and scales its counts by
    the orbit size. *)
module Symmetry : sig
  type t

  val make : int -> t
  (** Precompute the group for [n] states (order [(n-1)!]). *)

  val order : t -> int

  val orbit : t -> assignment:int -> output_bits:int -> (int * int) list
  (** All distinct codes in the orbit, self included. *)

  val canonical : t -> assignment:int -> output_bits:int -> int * int
  (** Lexicographically least member of the orbit. *)

  val canonical_weight : t -> assignment:int -> output_bits:int -> int option
  (** [Some orbit_size] iff the code is its orbit's canonical member,
      [None] otherwise. Summing the weights over all canonical codes
      recovers the full code-space cardinality. *)
end
