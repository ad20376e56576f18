(** Section 4.1's "deceptively similar" function

    [f(n) = max over protocols P with n states of
            min { i | IC(i) →* All_1 }],

    where [All_1] is the set of configurations in which every agent
    populates an output-1 state — over {e all} protocols, not just
    those computing a predicate. The paper notes that with leaders
    [f] grows faster than any primitive recursive function (via VAS
    reachability hardness [15, 16, 22, 23]), whereas for leaderless
    protocols a result of Balasubramanian et al. [10] gives
    [f(n) ∈ 2^O(n)] — the heuristic reason the leaderless busy beaver
    bound of Theorem 5.9 is so much smaller than Theorem 4.5's.

    This module measures [f] empirically on the enumerable protocol
    spaces ([n <= 3] exhaustively, [n = 4] by sampling). *)

val min_accepting_input :
  ?max_configs:int -> Population.t -> max_input:int -> int option
(** {!Eta_search.min_accepting_input} with [max_configs] defaulting to
    60_000, the scan's budget. *)

type scan_result = {
  num_protocols : int;
  max_f : int;              (** largest finite minimum found *)
  num_unreachable : int;
      (** protocols that never reach All_1 below the cutoff (no
          output-1 state, or no accepting input up to [max_input]) *)
  num_aborted : int;
      (** verdict unknown: a search hit [max_configs]
          ({!Configgraph.Too_many_configs}) before a match *)
  histogram : (int * int) list;  (** min accepting input -> #protocols *)
}

val scan :
  ?max_input:int -> ?max_configs:int -> ?sample:int * int -> n:int -> unit ->
  scan_result
(** The [Min_accepting] kernel of {!Busy_beaver.plan}, run sequentially
    through {!Busy_beaver.scan_chunk} and {!Busy_beaver.result_of_chunks}:
    the busy-beaver scan's code space, defaults, sampling and orbit
    pruning. Pruning is exact because [IC(i) →* All_1] is invariant under
    relabelling states [1..n-1], as long as no search hits the budget
    (where a search stops depends on the labelling). At [n <= 4] and
    [max_input <= 12] it cannot: [IC(12)] has at most C(15,3) = 455
    configurations. *)
