type t = {
  protocol : Population.t;
  a : int;
  m : int;
  saturation : Saturation.witness;
  d_config : Mset.t;
  trace : int list;
  stable_target : Mset.t;
  omega : Omega_vec.t;
  theta : int array;
  b : int;
  d_b : Mset.t;
}

let is_identity p t =
  Intvec.norm1 (Population.displacement p t) = 0

let enabled_non_identity p c =
  List.filter
    (fun t -> (not (is_identity p t)) && Population.enabled p c t)
    (List.init (Population.num_transitions p) Fun.id)

(* Budgets: steps per random walk, and the largest saturation scale. *)
let max_walk = 200_000
let max_m = 64

(* Random walk recording its trace; stops at the first configuration
   satisfying [accept], or at a fixpoint, or after [max_walk] steps. *)
let walk_to ~rng p c0 accept =
  let rec go c trace steps =
    match accept c with
    | Some payload -> Some (List.rev trace, c, payload)
    | None ->
      if steps >= max_walk then None
      else begin
        match enabled_non_identity p c with
        | [] -> None
        | choices ->
          let t = List.nth choices (Splitmix64.int_below rng (List.length choices)) in
          go (Population.fire p c t) (t :: trace) (steps + 1)
      end
  in
  go c0 [] 0

let omega_coords v =
  List.filter
    (fun q -> match Omega_vec.get v q with Omega_vec.Omega -> true | _ -> false)
    (List.init (Omega_vec.dim v) Fun.id)

let construct ?(seed = 1) p =
  if not (Population.is_leaderless p) then Error "leaderless protocols only"
  else begin
    match Saturation.find p with
    | Error e -> Error ("saturation failed: " ^ e)
    | Ok w ->
      let analysis = Stable_sets.analyse p in
      let sc = Stable_sets.stable_union analysis in
      let sc_vectors = Downset.max_elements sc in
      let candidates =
        Potential.basis p
        |> List.filter_map (fun theta ->
               let b, d_b = Potential.result_config p theta in
               if b >= 1 then Some (theta, b, d_b, Potential.size theta) else None)
        |> List.sort (fun (_, _, _, s1) (_, _, _, s2) -> Stdlib.compare s1 s2)
      in
      if candidates = [] then Error "no potentially realisable multiset consumes input"
      else begin
        let rng = Splitmix64.create seed in
        (* accept: a stable configuration compatible with some candidate
           θ whose saturation requirement 2|θ| is within the scale m *)
        let accept m c =
          if not (Downset.mem c sc) then None
          else
            List.find_map
              (fun v ->
                if not (Omega_vec.member c v) then None
                else begin
                  let s = omega_coords v in
                  List.find_map
                    (fun (theta, b, d_b, size) ->
                      if 2 * size <= m
                         && List.for_all (fun q -> List.mem q s) (Mset.support d_b)
                      then Some (v, theta, b, d_b)
                      else None)
                    candidates
                end)
              sc_vectors
        in
        let rec try_m m =
          if m > max_m then
            Error "no compatible stable configuration found within the scale budget"
          else begin
            let d_config = Mset.scale m w.Saturation.result in
            match walk_to ~rng p d_config (accept m) with
            | Some (trace, stable_target, (v, theta, b, d_b)) ->
              Ok
                {
                  protocol = p;
                  a = m * w.Saturation.input;
                  m;
                  saturation = w;
                  d_config;
                  trace;
                  stable_target;
                  omega = v;
                  theta;
                  b;
                  d_b;
                }
            | None -> try_m (m * 2)
          end
        in
        let min_size =
          List.fold_left (fun acc (_, _, _, s) -> Stdlib.min acc s) max_int candidates
        in
        try_m (Stdlib.max 1 (2 * min_size))
      end
  end

let replay_trace p c0 trace =
  let rec go c = function
    | [] -> Some c
    | t :: rest ->
      (match Population.fire_opt p c t with
       | Some c' -> go c' rest
       | None -> None)
  in
  go c0 trace

let check cert =
  let p = cert.protocol in
  let analysis = Stable_sets.analyse p in
  let sc = Stable_sets.stable_union analysis in
  let sc_vectors = Downset.max_elements sc in
  let b', d_b' = Potential.result_config p cert.theta in
  let s = omega_coords cert.omega in
  Saturation.check cert.saturation
  && cert.m >= 1
  && cert.a = cert.m * cert.saturation.Saturation.input
  && Mset.equal cert.d_config (Mset.scale cert.m cert.saturation.Saturation.result)
  && (match Saturation.replay_scaled cert.saturation cert.m with
     | Some c -> Mset.equal c cert.d_config
     | None -> false)
  && (match replay_trace p cert.d_config cert.trace with
     | Some c -> Mset.equal c cert.stable_target
     | None -> false)
  && Downset.mem cert.stable_target sc
  && List.exists (Omega_vec.equal cert.omega) sc_vectors
  && Omega_vec.member cert.stable_target cert.omega
  && Potential.is_potentially_realisable p cert.theta
  && cert.b = b'
  && cert.b >= 1
  && Mset.equal cert.d_b d_b'
  && List.for_all (fun q -> List.mem q s) (Mset.support cert.d_b)
  && 2 * Potential.size cert.theta <= cert.m

let pp fmt cert =
  let names = cert.protocol.Population.states in
  Format.fprintf fmt
    "@[<v>certificate: eta <= %d  (m = %d, input 3^%d = %d)@,\
     D = %a@,stable target C* = %a  (trace length %d)@,\
     basis vector %a@,theta = |%d| transitions, b = %d, D_b = %a@]"
    cert.a cert.m cert.saturation.Saturation.levels
    cert.saturation.Saturation.input (Mset.pp ~names) cert.d_config
    (Mset.pp ~names) cert.stable_target (List.length cert.trace)
    (Omega_vec.pp ~names) cert.omega (Potential.size cert.theta) cert.b
    (Mset.pp ~names) cert.d_b
