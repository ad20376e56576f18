type scan_result = {
  num_protocols : int;
  num_threshold : int;
  num_reject_all : int;
  num_aborted : int;
  best_eta : int;
  best : Population.t option;
  histogram : (int * int) list;
  completed_chunks : int;
  total_chunks : int;
  interrupted : bool;
  task_errors : int;
}

let pairs n =
  List.concat_map
    (fun i -> List.map (fun j -> (i, j)) (List.init (n - i) (fun k -> i + k)))
    (List.init n Fun.id)
  |> Array.of_list

let num_deterministic_protocols n =
  let p = n * (n + 1) / 2 in
  let rec pow b e acc = if e = 0 then acc else pow b (e - 1) (acc * b) in
  pow p p 1 * (1 lsl n)

let check_n who n =
  if n < 1 || n > 4 then
    invalid_arg (Printf.sprintf "Busy_beaver.%s: 1 <= n <= 4" who)

(* What every protocol of one code space shares, built once per [n]
   rather than per decoded protocol: the ordered pairs, the state names
   and the protocol-name prefix. *)
type space = { pair_list : (int * int) array; states : string array; prefix : string }

let spaces =
  Array.init 5 (fun n ->
      {
        pair_list = pairs n;
        states = Array.init n (Printf.sprintf "q%d");
        prefix = Printf.sprintf "bb-%d-" n;
      })

(* Decode a protocol from (transition assignment index, output bitmap).
   Its name is [bb-<n>-<assignment>-<output_bits>]. *)
let decode n ~assignment ~output_bits =
  let { pair_list; states; prefix } = spaces.(n) in
  let np = Array.length pair_list in
  let transitions = ref [] in
  let code = ref assignment in
  for i = 0 to np - 1 do
    let target = !code mod np in
    code := !code / np;
    let p, q = pair_list.(i) in
    let p', q' = pair_list.(target) in
    transitions := (p, q, p', q') :: !transitions
  done;
  let output = Array.init n (fun s -> output_bits land (1 lsl s) <> 0) in
  Population.make
    ~name:
      (String.concat ""
         [ prefix; string_of_int assignment; "-"; string_of_int output_bits ])
    ~states ~transitions:!transitions
    ~inputs:[ ("x", 0) ]
    ~output ()

let protocol_of_code ~n ~assignment ~output_bits =
  check_n "protocol_of_code" n;
  decode n ~assignment ~output_bits

(* Sampled codes come from per-index splits of the master stream (the
   [Ensemble.rng_for_trial] scheme): sample [i] depends only on the seed
   and [i], never on the chunking or the domain count. *)
let sample_codes ~seed ~count ~num_assignments ~num_outputs =
  let master = Splitmix64.create seed in
  let codes = Array.make count (0, 0) in
  for i = 0 to count - 1 do
    let rng = Splitmix64.split master in
    let assignment = Splitmix64.int_below rng num_assignments in
    codes.(i) <- (assignment, Splitmix64.int_below rng num_outputs)
  done;
  codes

module Symmetry = struct
  (* The group acting on the code space. A state permutation sends a
     protocol to an isomorphic one (same decided predicate, same
     threshold), but the enumeration fixes the input state to 0, so the
     permutations that keep the code space closed are exactly the
     stabiliser of state 0 — S_{n-1} acting on states 1..n-1. Each
     element is stored with its induced permutation of unordered state
     pairs, which is how it acts on transition-assignment digits. *)
  type t = {
    np : int;
    n : int;
    elems : (int array * int array) array;
        (* (state perm, pair perm), identity excluded *)
    powers : int array;  (* np^k for re-encoding assignment digits *)
  }

  let rec insertions x = function
    | [] -> [ [ x ] ]
    | y :: rest as l ->
      (x :: l) :: List.map (fun r -> y :: r) (insertions x rest)

  let rec permutations = function
    | [] -> [ [] ]
    | x :: rest -> List.concat_map (insertions x) (permutations rest)

  let make n =
    check_n "Symmetry.make" n;
    let pair_list = spaces.(n).pair_list in
    let np = Array.length pair_list in
    let pair_index = Array.make (n * n) 0 in
    Array.iteri (fun k (a, b) -> pair_index.((a * n) + b) <- k) pair_list;
    let elems =
      permutations (List.init (n - 1) (fun i -> i + 1))
      |> List.filter_map (fun tail ->
             let sperm = Array.of_list (0 :: tail) in
             if Array.for_all2 ( = ) sperm (Array.init n Fun.id) then None
             else begin
               let pperm =
                 Array.map
                   (fun (a, b) ->
                     let a' = sperm.(a) and b' = sperm.(b) in
                     let a', b' = if a' <= b' then (a', b') else (b', a') in
                     pair_index.((a' * n) + b'))
                   pair_list
               in
               Some (sperm, pperm)
             end)
      |> Array.of_list
    in
    let powers = Array.make np 1 in
    for k = 1 to np - 1 do
      powers.(k) <- powers.(k - 1) * np
    done;
    { np; n; elems; powers }

  (* Image of a code under one group element: assignment digit i (the
     target pair of pair i) moves to position pperm(i) with value
     pperm(digit); output bit s moves to sperm(s). *)
  let apply t (sperm, pperm) ~assignment ~output_bits =
    let a' = ref 0 in
    let code = ref assignment in
    for i = 0 to t.np - 1 do
      let target = !code mod t.np in
      code := !code / t.np;
      a' := !a' + (pperm.(target) * t.powers.(pperm.(i)))
    done;
    let o' = ref 0 in
    for s = 0 to t.n - 1 do
      if output_bits land (1 lsl s) <> 0 then o' := !o' lor (1 lsl sperm.(s))
    done;
    (!a', !o')

  let orbit t ~assignment ~output_bits =
    Array.fold_left
      (fun acc g ->
        let image = apply t g ~assignment ~output_bits in
        if List.mem image acc then acc else image :: acc)
      [ (assignment, output_bits) ]
      t.elems

  let canonical t ~assignment ~output_bits =
    List.fold_left Stdlib.min (assignment, output_bits)
      (List.map
         (fun g -> apply t g ~assignment ~output_bits)
         (Array.to_list t.elems))

  (* [Some orbit_size] when the code is the lexicographic minimum of its
     orbit (the member the pruned scan verifies, standing in for the
     whole orbit), [None] when a smaller member exists. *)
  let canonical_weight t ~assignment ~output_bits =
    let self = (assignment, output_bits) in
    let rec go i distinct =
      if i >= Array.length t.elems then Some (1 + List.length distinct)
      else
        let image = apply t t.elems.(i) ~assignment ~output_bits in
        if image < self then None
        else
          go (i + 1)
            (if image = self || List.mem image distinct then distinct
             else image :: distinct)
    in
    go 0 []

  let order t = 1 + Array.length t.elems
end

let m_scanned = Obs.Metrics.counter "bbsearch.protocols_scanned"
let m_threshold = Obs.Metrics.counter "bbsearch.threshold_protocols"
let m_aborted = Obs.Metrics.counter "bbsearch.config_budget_aborts"
let m_pruned = Obs.Metrics.counter "bbsearch.pruned_symmetry"

(* Per-chunk accumulator. Chunks are a fixed partition of the code
   space, each owned by exactly one worker; the driver reduces them in
   index order, so aggregates are byte-identical for every jobs/chunk
   setting (the [Pool] contract). The best protocol is held as its code
   — not a decoded [Population.t] — so a checkpointed chunk can be
   restored byte-identically by re-decoding. *)
type partial = {
  mutable p_scanned : int;
  mutable p_threshold : int;
  mutable p_reject_all : int;
  mutable p_aborted : int;
  mutable p_best_eta : int;
  mutable p_best_code : (int * int) option;
  p_hist : (int, int) Hashtbl.t;
}

let fresh_partial () =
  {
    p_scanned = 0;
    p_threshold = 0;
    p_reject_all = 0;
    p_aborted = 0;
    p_best_eta = 0;
    p_best_code = None;
    p_hist = Hashtbl.create 8;
  }

(* Checkpoint serialisation of one chunk accumulator. The histogram is
   emitted sorted so equal accumulators always render identically. *)
let partial_to_json part =
  let open Obs.Json in
  let hist =
    Hashtbl.fold (fun eta count acc -> (eta, count) :: acc) part.p_hist []
    |> List.sort Stdlib.compare
    |> List.map (fun (eta, count) -> List [ Int eta; Int count ])
  in
  Obj
    [
      ("scanned", Int part.p_scanned);
      ("threshold", Int part.p_threshold);
      ("reject_all", Int part.p_reject_all);
      ("aborted", Int part.p_aborted);
      ("best_eta", Int part.p_best_eta);
      ( "best_code",
        match part.p_best_code with
        | None -> Null
        | Some (a, o) -> List [ Int a; Int o ] );
      ("hist", List hist);
    ]

let partial_of_json j =
  let open Obs.Json in
  match j with
  | Obj fields ->
    let int k =
      match List.assoc_opt k fields with
      | Some (Int n) -> Ok n
      | _ -> Error (Printf.sprintf "chunk state: missing int field %S" k)
    in
    let ( let* ) = Result.bind in
    let* scanned = int "scanned" in
    let* threshold = int "threshold" in
    let* reject_all = int "reject_all" in
    let* aborted = int "aborted" in
    let* best_eta = int "best_eta" in
    let part = fresh_partial () in
    part.p_scanned <- scanned;
    part.p_threshold <- threshold;
    part.p_reject_all <- reject_all;
    part.p_aborted <- aborted;
    part.p_best_eta <- best_eta;
    let* () =
      match List.assoc_opt "best_code" fields with
      | Some Null | None -> Ok ()
      | Some (List [ Int a; Int o ]) ->
        part.p_best_code <- Some (a, o);
        Ok ()
      | Some _ -> Error "chunk state: malformed best_code"
    in
    (match List.assoc_opt "hist" fields with
     | Some (List entries) ->
       List.fold_left
         (fun acc entry ->
           let* () = acc in
           match entry with
           | List [ Int eta; Int count ] ->
             Hashtbl.replace part.p_hist eta count;
             Ok ()
           | _ -> Error "chunk state: malformed hist entry")
         (Ok ()) entries
       |> Result.map (fun () -> part)
     | None -> Ok part
     | Some _ -> Error "chunk state: malformed hist")
  | _ -> Error "chunk state: object expected"

(* ------------------------------------------------------------- plans *)

(* A plan pins everything that shapes the chunk partition or the
   per-chunk content of a scan — the code space, cutoffs, symmetry
   pruning, sampling scheme, and the precomputed chunk boundaries. Any
   two agents (domains of one process, or worker processes on other
   machines) holding equal plans compute byte-identical chunk
   accumulators for equal chunk indices; that is the whole determinism
   story of the distributed scan. *)
type plan = {
  pl_n : int;
  pl_num_outputs : int;
  pl_max_input : int;
  pl_max_configs : int;
  pl_eta_budget_s : float option;
  pl_prune : bool;
  pl_packed : bool;
  pl_chunk : int;
  pl_schedule : Pool.schedule;
  pl_jobs : int;
  pl_sample : (int * int) option;
  pl_codes : (int * int) array option;
  pl_sym : Symmetry.t option;
  pl_total : int;
  pl_bounds : (int * int) array;
}

let plan ?(jobs = 1) ?(chunk = 1024) ?(schedule = `Fixed) ?(prune = true)
    ?(packed = true) ?(max_input = 12) ?(max_configs = 60_000) ?eta_budget_s
    ?sample ~n () =
  check_n "plan" n;
  let np = Array.length spaces.(n).pair_list in
  let rec pow b e acc = if e = 0 then acc else pow b (e - 1) (acc * b) in
  let num_assignments = pow np np 1 in
  let num_outputs = 1 lsl n in
  let codes =
    Option.map
      (fun (count, seed) ->
        sample_codes ~seed ~count ~num_assignments ~num_outputs)
      sample
  in
  let total =
    match codes with
    | None -> num_assignments * num_outputs
    | Some codes -> Array.length codes
  in
  let chunk = Stdlib.max 1 chunk in
  {
    pl_n = n;
    pl_num_outputs = num_outputs;
    pl_max_input = max_input;
    pl_max_configs = max_configs;
    pl_eta_budget_s = eta_budget_s;
    pl_prune = prune;
    pl_packed = packed;
    pl_chunk = chunk;
    pl_schedule = schedule;
    pl_jobs = Stdlib.max 1 jobs;
    pl_sample = sample;
    pl_codes = codes;
    pl_sym = (if prune then Some (Symmetry.make n) else None);
    pl_total = total;
    pl_bounds = Pool.boundaries schedule ~tasks:total ~jobs ~chunk;
  }

let plan_chunks plan = Array.length plan.pl_bounds
let plan_total plan = plan.pl_total

let plan_chunk_range plan ci =
  if ci < 0 || ci >= Array.length plan.pl_bounds then
    invalid_arg
      (Printf.sprintf "Busy_beaver.plan_chunk_range: chunk %d of %d" ci
         (Array.length plan.pl_bounds));
  plan.pl_bounds.(ci)

let chunk_index plan ~lo =
  match plan.pl_schedule with
  | `Fixed -> lo / plan.pl_chunk
  | `Guided ->
    (* boundaries are sorted by [lo]; binary-search the slot *)
    let bounds = plan.pl_bounds in
    let rec go a b =
      if a > b then
        invalid_arg (Printf.sprintf "Busy_beaver.chunk_index: lo %d" lo)
      else
        let m = (a + b) / 2 in
        let mlo, mhi = bounds.(m) in
        if lo < mlo then go a (m - 1)
        else if lo >= mhi then go (m + 1) b
        else m
    in
    go 0 (Array.length bounds - 1)

(* Everything that shapes the chunk partition or the per-chunk content
   goes into the checkpoint fingerprint: a snapshot only resumes a
   scan that would recompute the exact same chunks, and a worker only
   serves a coordinator whose plan equals its own. The sample
   (count, seed) covers the RNG scheme — sampled code [i] depends on
   nothing else. The guided schedule's partition depends on jobs, so
   those two fields join the fingerprint only in that mode (default
   fingerprints stay compatible with pre-v2 snapshots). *)
let plan_config plan =
  let open Obs.Json in
  Obj
    ([
       ("workload", String "bbsearch");
       ("n", Int plan.pl_n);
       ("max_input", Int plan.pl_max_input);
       ("max_configs", Int plan.pl_max_configs);
       ( "eta_budget_s",
         match plan.pl_eta_budget_s with None -> Null | Some s -> Float s );
       ("prune", Bool plan.pl_prune);
       ("packed", Bool plan.pl_packed);
       ("chunk", Int plan.pl_chunk);
       ( "sample",
         match plan.pl_sample with
         | None -> Null
         | Some (count, seed) -> List [ Int count; Int seed ] );
       ("total", Int plan.pl_total);
     ]
     @
     match plan.pl_schedule with
     | `Fixed -> []
     | `Guided -> [ ("schedule", String "guided"); ("jobs", Int plan.pl_jobs) ])

let plan_of_config json =
  let open Obs.Json in
  match json with
  | Obj fields ->
    let ( let* ) = Result.bind in
    let int k =
      match List.assoc_opt k fields with
      | Some (Int n) -> Ok n
      | _ -> Error (Printf.sprintf "scan config: missing int field %S" k)
    in
    let bool k =
      match List.assoc_opt k fields with
      | Some (Bool b) -> Ok b
      | _ -> Error (Printf.sprintf "scan config: missing bool field %S" k)
    in
    let* () =
      match List.assoc_opt "workload" fields with
      | Some (String "bbsearch") -> Ok ()
      | _ -> Error "scan config: not a bbsearch configuration"
    in
    let* n = int "n" in
    if n < 1 || n > 4 then Error "scan config: 1 <= n <= 4"
    else
      let* max_input = int "max_input" in
      let* max_configs = int "max_configs" in
      let* eta_budget_s =
        match List.assoc_opt "eta_budget_s" fields with
        | Some Null | None -> Ok None
        | Some (Float s) -> Ok (Some s)
        | Some (Int s) -> Ok (Some (float_of_int s))
        | Some _ -> Error "scan config: malformed eta_budget_s"
      in
      let* prune = bool "prune" in
      let* packed = bool "packed" in
      let* chunk = int "chunk" in
      let* sample =
        match List.assoc_opt "sample" fields with
        | Some Null | None -> Ok None
        | Some (List [ Int count; Int seed ]) -> Ok (Some (count, seed))
        | Some _ -> Error "scan config: malformed sample"
      in
      let* schedule, jobs =
        match List.assoc_opt "schedule" fields with
        | None -> Ok (`Fixed, 1)
        | Some (String "guided") ->
          let* jobs = int "jobs" in
          Ok (`Guided, jobs)
        | Some _ -> Error "scan config: malformed schedule"
      in
      let p =
        plan ~jobs ~chunk ~schedule ~prune ~packed ~max_input ~max_configs
          ?eta_budget_s ?sample ~n ()
      in
      let* total = int "total" in
      if total <> p.pl_total then
        Error
          (Printf.sprintf "scan config: total %d does not match the space (%d)"
             total p.pl_total)
      else Ok p
  | _ -> Error "scan config: object expected"

(* ------------------------------------------------------ chunk running *)

(* Live progress shared by the chunks of one in-process scan; worker
   processes of a distributed scan run without one (their coordinator
   aggregates progress instead). *)
type display = {
  d_total : int;
  d_scanned : int Atomic.t;
  d_threshold : int Atomic.t;
  d_best : int Atomic.t;
  d_progress : Obs.Progress.t;
}

let examine plan part display ~weight ~assignment ~output_bits =
  part.p_scanned <- part.p_scanned + weight;
  if Obs.Metrics.enabled () then Obs.Metrics.add m_scanned weight;
  (match display with
   | None -> ()
   | Some d ->
     ignore (Atomic.fetch_and_add d.d_scanned weight);
     Obs.Progress.tick d.d_progress (fun () ->
         Printf.sprintf "%d/%d protocols, %d threshold, best eta %d"
           (Atomic.get d.d_scanned) d.d_total
           (Atomic.get d.d_threshold)
           (Atomic.get d.d_best)));
  (* all-reject output maps short-circuit *)
  if output_bits = 0 then part.p_reject_all <- part.p_reject_all + weight
  else begin
    let p = decode plan.pl_n ~assignment ~output_bits in
    let bump_hist eta =
      part.p_threshold <- part.p_threshold + weight;
      if Obs.Metrics.enabled () then Obs.Metrics.add m_threshold weight;
      (match display with
       | None -> ()
       | Some d -> ignore (Atomic.fetch_and_add d.d_threshold weight));
      Hashtbl.replace part.p_hist eta
        (weight + Option.value (Hashtbl.find_opt part.p_hist eta) ~default:0)
    in
    let record_best eta =
      if eta > part.p_best_eta then begin
        part.p_best_eta <- eta;
        part.p_best_code <- Some (assignment, output_bits);
        (match display with
         | None -> ()
         | Some d ->
           let rec raise_disp () =
             let cur = Atomic.get d.d_best in
             if eta > cur && not (Atomic.compare_and_set d.d_best cur eta) then
               raise_disp ()
           in
           raise_disp ());
        Obs.Trace.instant "bbsearch.new_best" ~cat:"bbsearch"
          ~args:[ ("eta", string_of_int eta); ("protocol", p.Population.name) ]
      end
    in
    match
      (* eager exploration: the scan decides almost every input, so
         lazy SCC detection saves <0.1% of the nodes while its DFS
         machinery costs ~25% per node *)
      Eta_search.find ~max_configs:plan.pl_max_configs
        ?wall_budget_s:plan.pl_eta_budget_s ~packed:plan.pl_packed
        ~incremental:false p ~max_input:plan.pl_max_input
    with
    | Eta_search.Eta eta ->
      bump_hist eta;
      record_best eta
    | Eta_search.Always_accepts ->
      (* computes x >= i for every valid i up to the smallest input:
         record as threshold 2 (all populations have >= 2 agents) *)
      bump_hist 2;
      record_best 2
    | Eta_search.Always_rejects -> part.p_reject_all <- part.p_reject_all + weight
    | Eta_search.Not_threshold _ -> ()
    | exception Configgraph.Too_many_configs _ ->
      part.p_aborted <- part.p_aborted + weight;
      Obs.Metrics.incr m_aborted
    | exception Obs.Budget.Exceeded _ ->
      (* wall budget hit on this protocol: its verdict degrades to
         unknown, the scan itself keeps going *)
      part.p_aborted <- part.p_aborted + weight;
      Obs.Metrics.incr m_aborted
  end

(* One chunk of the plan, from a fresh accumulator — the unit of work a
   pool domain or a remote worker process performs. A retried or
   re-leased chunk restarts from scratch by construction, so its counts
   can never double. *)
let run_chunk ?display plan ci =
  let part = fresh_partial () in
  let lo, hi = plan_chunk_range plan ci in
  for idx = lo to hi - 1 do
    match plan.pl_codes with
    | Some codes ->
      (* sampling examines every drawn code exactly once; with pruning
         on, its canonical orbit representative is verified instead —
         same threshold result, and duplicate-orbit draws then hit the
         same protocol *)
      let assignment, output_bits = codes.(idx) in
      let assignment, output_bits =
        match plan.pl_sym with
        | None -> (assignment, output_bits)
        | Some s ->
          let a, o = Symmetry.canonical s ~assignment ~output_bits in
          (a, o)
      in
      examine plan part display ~weight:1 ~assignment ~output_bits
    | None ->
      let assignment = idx / plan.pl_num_outputs
      and output_bits = idx mod plan.pl_num_outputs in
      (match plan.pl_sym with
       | None -> examine plan part display ~weight:1 ~assignment ~output_bits
       | Some s ->
         (match Symmetry.canonical_weight s ~assignment ~output_bits with
          | Some weight -> examine plan part display ~weight ~assignment ~output_bits
          | None ->
            (* a smaller orbit member is (or will be) verified with
               this code's count folded into its weight *)
            Obs.Metrics.incr m_pruned))
  done;
  part

let scan_chunk plan ci = partial_to_json (run_chunk plan ci)

(* order-fixed reduce: folding the chunk partials left-to-right is the
   same fold the sequential scan performs over the full code space —
   for any contiguous partition *)
let merge_partials plan partials ~completed ~interrupted ~task_errors =
  let acc = fresh_partial () in
  Array.iter
    (fun part ->
      acc.p_scanned <- acc.p_scanned + part.p_scanned;
      acc.p_threshold <- acc.p_threshold + part.p_threshold;
      acc.p_reject_all <- acc.p_reject_all + part.p_reject_all;
      acc.p_aborted <- acc.p_aborted + part.p_aborted;
      if part.p_best_eta > acc.p_best_eta then begin
        acc.p_best_eta <- part.p_best_eta;
        acc.p_best_code <- part.p_best_code
      end;
      Hashtbl.iter
        (fun eta count ->
          Hashtbl.replace acc.p_hist eta
            (count + Option.value (Hashtbl.find_opt acc.p_hist eta) ~default:0))
        part.p_hist)
    partials;
  ( acc,
    {
      num_protocols = acc.p_scanned;
      num_threshold = acc.p_threshold;
      num_reject_all = acc.p_reject_all;
      num_aborted = acc.p_aborted;
      best_eta = acc.p_best_eta;
      best =
        Option.map
          (fun (assignment, output_bits) ->
            decode plan.pl_n ~assignment ~output_bits)
          acc.p_best_code;
      histogram =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) acc.p_hist []
        |> List.sort Stdlib.compare;
      completed_chunks = completed;
      total_chunks = Array.length plan.pl_bounds;
      interrupted;
      task_errors;
    } )

let result_of_chunks ?(interrupted = false) plan chunks =
  if Array.length chunks <> plan_chunks plan then
    invalid_arg
      (Printf.sprintf "Busy_beaver.result_of_chunks: %d chunk slots, plan has %d"
         (Array.length chunks) (plan_chunks plan));
  let completed = ref 0 in
  let partials =
    Array.mapi
      (fun i state ->
        match state with
        | None -> fresh_partial ()
        | Some j ->
          (match partial_of_json j with
           | Ok part ->
             incr completed;
             part
           | Error msg ->
             invalid_arg
               (Printf.sprintf "Busy_beaver.result_of_chunks: chunk %d: %s" i
                  msg)))
      chunks
  in
  snd
    (merge_partials plan partials ~completed:!completed ~interrupted
       ~task_errors:0)

(* --------------------------------------------------------------- scan *)

let scan ?(jobs = 1) ?(chunk = 1024) ?(schedule = `Fixed) ?(prune = true)
    ?(packed = true) ?(max_input = 12) ?(max_configs = 60_000) ?eta_budget_s
    ?sample ?checkpoint ?(checkpoint_every_chunks = 64)
    ?(checkpoint_every_s = 30.0) ?(resume = false) ?should_stop
    ?(on_task_error = `Fail) ~n () =
  let plan =
    plan ~jobs ~chunk ~schedule ~prune ~packed ~max_input ~max_configs
      ?eta_budget_s ?sample ~n ()
  in
  let total = plan.pl_total in
  let num_chunks = plan_chunks plan in
  let partials = Array.init num_chunks (fun _ -> fresh_partial ()) in
  let config_json = plan_config plan in
  let cp =
    match checkpoint with
    | None -> None
    | Some path ->
      let c =
        if resume && Sys.file_exists path then begin
          match Obs.Checkpoint.load path with
          | Error msg ->
            invalid_arg
              (Printf.sprintf "Busy_beaver.scan: cannot resume from %s: %s"
                 path msg)
          | Ok c ->
            if
              c.Obs.Checkpoint.config_hash
              <> Obs.Checkpoint.hash_config config_json
              || c.Obs.Checkpoint.total_chunks <> num_chunks
            then
              (* a typed error with a field-level diff: the user learns
                 which flag changed, not just that two hashes differ *)
              raise
                (Obs.Checkpoint.Mismatch
                   {
                     path;
                     diff =
                       Obs.Checkpoint.config_diff ~expected:config_json
                         ~found:c.Obs.Checkpoint.config;
                   });
            (* restore the completed chunks' accumulators *)
            for i = 0 to num_chunks - 1 do
              match Obs.Checkpoint.chunk_state c i with
              | None -> ()
              | Some j ->
                (match partial_of_json j with
                 | Ok part -> partials.(i) <- part
                 | Error msg ->
                   invalid_arg
                     (Printf.sprintf
                        "Busy_beaver.scan: checkpoint %s, chunk %d: %s" path i
                        msg))
            done;
            c
        end
        else Obs.Checkpoint.create ~config:config_json ~total_chunks:num_chunks
      in
      let writer =
        Obs.Checkpoint.writer ~every_chunks:checkpoint_every_chunks
          ~every_s:checkpoint_every_s ~path c
      in
      Some (c, writer)
  in
  let restored_chunks =
    match cp with Some (c, _) -> Obs.Checkpoint.num_done c | None -> 0
  in
  (* display-only tallies for the progress line; the authoritative
     counts live in the per-chunk partials *)
  let display =
    {
      d_total = total;
      d_scanned = Atomic.make 0;
      d_threshold = Atomic.make 0;
      d_best = Atomic.make 0;
      d_progress = Obs.Progress.create "bbsearch";
    }
  in
  Array.iter
    (fun part ->
      ignore (Atomic.fetch_and_add display.d_scanned part.p_scanned);
      ignore (Atomic.fetch_and_add display.d_threshold part.p_threshold);
      if part.p_best_eta > Atomic.get display.d_best then
        Atomic.set display.d_best part.p_best_eta)
    partials;
  let do_range ~lo ~hi:_ =
    let ci = chunk_index plan ~lo in
    (* a fresh accumulator per (re)run of the chunk, so a retried chunk
       can never double its counts *)
    partials.(ci) <- run_chunk ~display plan ci
  in
  (* cancellation: a delivered SIGINT/SIGTERM (inside the binary's
     graceful region) or the caller's token stops further chunk claims *)
  let stop_requested () =
    Obs.Shutdown.requested ()
    || (match should_stop with Some f -> f () | None -> false)
  in
  let skip_chunk =
    match cp with
    | None -> None
    | Some (c, _) -> Some (fun i -> Obs.Checkpoint.is_done c i)
  in
  let completed = Atomic.make restored_chunks in
  let on_chunk_done i =
    Atomic.incr completed;
    match cp with
    | None -> ()
    | Some (_, w) -> Obs.Checkpoint.note_done w i (partial_to_json partials.(i))
  in
  let pool_stats =
    (* the final snapshot must land even when a task failure re-raises
       out of the pool — that is the checkpoint a crash resumes from *)
    Fun.protect
      ~finally:(fun () ->
        match cp with
        | None -> ()
        | Some (_, w) ->
          (try Obs.Checkpoint.flush w
           with Sys_error msg ->
             Printf.eprintf "bbsearch: checkpoint write failed: %s\n%!" msg))
      (fun () ->
        Obs.Trace.with_span "bbsearch.scan" ~cat:"bbsearch"
          ~args:[ ("states", string_of_int n); ("total", string_of_int total) ]
          (fun () ->
            Pool.run ~jobs ~chunk ~schedule ~name:"bbsearch" ~on_task_error
              ~should_stop:stop_requested ?skip_chunk ~on_chunk_done
              ~tasks:total do_range))
  in
  let acc, result =
    merge_partials plan partials
      ~completed:(Atomic.get completed)
      ~interrupted:pool_stats.Pool.cancelled
      ~task_errors:pool_stats.Pool.task_errors
  in
  Obs.Progress.finish display.d_progress (fun () ->
      Printf.sprintf "%d protocols scanned, %d threshold, best eta %d"
        acc.p_scanned acc.p_threshold acc.p_best_eta);
  result

let iter_protocols ?sample ~n f =
  check_n "iter_protocols" n;
  let np = Array.length spaces.(n).pair_list in
  let rec pow b e acc = if e = 0 then acc else pow b (e - 1) (acc * b) in
  let num_assignments = pow np np 1 in
  let num_outputs = 1 lsl n in
  match sample with
  | None ->
    for assignment = 0 to num_assignments - 1 do
      for output_bits = 0 to num_outputs - 1 do
        f (decode n ~assignment ~output_bits)
      done
    done
  | Some (count, seed) ->
    Array.iter
      (fun (assignment, output_bits) ->
        f (decode n ~assignment ~output_bits))
      (sample_codes ~seed ~count ~num_assignments ~num_outputs)
