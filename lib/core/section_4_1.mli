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
(** Least [i <= max_input] such that some configuration reachable from
    [IC(i)] has all agents on output-1 states; [None] if there is none
    below the cutoff (or the protocol has no output-1 state at all).
    Each input is one {!Configgraph.search}: a breadth-first walk from
    [IC(i)] that stops at the first [All_1] configuration it discovers,
    so the graph is built in full only when no such configuration is
    reachable.
    @raise Configgraph.Too_many_configs when a search discovers
    [max_configs] (default 60_000) configurations without a match. *)

type scan_result = {
  num_protocols : int;
  max_f : int;              (** largest finite minimum found *)
  num_unreachable : int;    (** protocols that never reach All_1 below the cutoff *)
  histogram : (int * int) list;  (** min accepting input -> #protocols *)
}

val scan :
  ?max_input:int -> ?max_configs:int -> ?sample:int * int -> n:int -> unit ->
  scan_result
(** Same protocol space and defaults as {!Busy_beaver.scan}. *)
