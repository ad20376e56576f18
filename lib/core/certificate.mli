(** End-to-end, machine-checked instances of Lemma 5.2 — the engine of
    Theorem 5.9 — on concrete leaderless protocols.

    A certificate packages, for a protocol computing some [x >= eta]:
    - a saturation witness (Lemma 5.4) scaled by [m], giving
      [IC(a) →* D] with [D] [m]-saturated, [a = m·3^j];
    - a transition trace [D →* C*] with [C*] a stable configuration,
      i.e. [C* = B + D_a] for the basis element [(B, S)] induced by a
      maximal ω-vector of [SC] (Lemma 5.5's step);
    - a potentially realisable [θ] with [IC(b) ⟹θ D_b], [b >= 1],
      [D_b ∈ N^S] and [m >= 2|θ|] (Lemma 5.8's step);
    and therefore certifies [eta <= a] by Lemma 5.2. {!check}
    re-validates every side condition from scratch. *)

(* The fields are public so that tools and tests can inspect (and
   deliberately corrupt) certificates; {!check} accepts no forgeries. *)
type t = {
  protocol : Population.t;
  a : int;                    (** certified: [eta <= a] *)
  m : int;                    (** saturation scale; [a = m · 3^levels] *)
  saturation : Saturation.witness;
  d_config : Mset.t;          (** [D = m · saturation.result] *)
  trace : int list;           (** transitions from [D] to [stable_target] *)
  stable_target : Mset.t;     (** [C* = B + D_a ∈ SC] *)
  omega : Omega_vec.t;        (** the ω-vector inducing [(B, S)] *)
  theta : int array;          (** potentially realisable multiset *)
  b : int;                    (** [= min_input theta >= 1] *)
  d_b : Mset.t;               (** result of [θ]; supported on [S] *)
}

val construct : ?seed:int -> Population.t -> (t, string) result
(** Runs the pipeline: saturation, stable sets, Pottier basis, then for
    increasing scales [m] up to 64 a fair random walk (at most 200,000
    steps) from [D] to a stable configuration compatible with some
    basis element and basis multiset. *)

val check : t -> bool
(** Re-validates the full certificate: replays the scaled saturation
    sequence and the trace, re-computes stability and membership, and
    re-checks [θ] against the Diophantine system. *)

val pp : Format.formatter -> t -> unit
