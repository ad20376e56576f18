(* The repository benchmark: four workloads on the paper-facing hot
   paths, each one closed-loop batch of work from a single process on
   one domain (jobs = 1). Run through perfbench/run.py, which builds
   this executable; see perfbench/README.md for the workloads, every
   metric and the layer -> end-to-end mapping.

   Plain mode (--trace 0) times set-up and then repeats the batch on
   the same seeded inputs until --seconds have passed, with tracing and
   [Obs.Metrics] off. Traced mode (--trace 1) runs a warm-up batch,
   one untraced and one traced batch, then times calls into each
   layer's public functions from this file, and reports per-layer
   counts and unit costs. Output oracles run outside the timed phase in both modes.

   Standard error gets a human-readable report; the last line of
   standard output is one JSON object. *)

let n = 3  (* states of the scanned code space: the headline BB(3) path *)

let max_input = 12  (* Busy_beaver / Section_4_1 default cutoff *)

let default_seed = 1

(* ------------------------------------------------------------ helpers *)

(* A span wrapper handed to the timed batch: the identity in plain
   mode, a recording span in the traced pass. *)
type wrap = { span : 'a. string -> (unit -> 'a) -> 'a }

let plain = { span = (fun _ f -> f ()) }

(* A batch's operations, and how many of them gave a complete answer
   that is right: the rest ran out of a budget or, in [simulate], one
   trial stopped on a wrong output. Those are measured outcomes of the
   program (ok_frac, goodput), not failed operations; an operation fails
   when an output oracle rejects what the program returned. *)
type summary = { attempted : int; good : int }

type prepared = {
  batch : wrap -> summary;
  oracle : unit -> string list;  (* mismatch messages; empty when correct *)
  layers : Spans.t -> (string -> int) -> (string * float) list;
      (* per-layer metrics, given the counter growth of the traced pass *)
}

(* [diffing f] runs [f] and returns its result with a lookup of how
   much each [Obs.Metrics] counter grew meanwhile. *)
let diffing f =
  let before = Obs.Metrics.snapshot ~process:false () in
  let r = f () in
  let d = Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ~process:false ()) in
  ( r,
    fun name ->
      match List.assoc_opt name d with Some (Obs.Metrics.Counter c) -> c | _ -> 0 )

let per x d = if d = 0 then 0.0 else x /. float_of_int d

let ns_per s d = per (s *. 1e9) d

let catalog name =
  match Catalog.build name with
  | Some e -> e
  | None -> failwith ("perfbench: no catalog entry " ^ name)

(* The sampled-scan code scheme of [Busy_beaver.scan ~sample]: sample i
   is drawn from the i-th split of the seed's stream. The benchmark
   re-derives the codes for its oracles and layer timings; the traced
   run checks that its per-code verdicts reproduce the program's
   aggregates, so a drift in the scheme fails the run. *)
let sample_codes ~seed ~count =
  let np = n * (n + 1) / 2 in
  let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
  let num_assignments = pow np np and num_outputs = 1 lsl n in
  let master = Splitmix64.create seed in
  Array.init count (fun _ ->
      let rng = Splitmix64.split master in
      let assignment = Splitmix64.int_below rng num_assignments in
      (assignment, Splitmix64.int_below rng num_outputs))

let decode (assignment, output_bits) =
  Busy_beaver.protocol_of_code ~n ~assignment ~output_bits

(* Chunks of the code array, so the layer timings keep at most one
   chunk's graphs alive. *)
let iter_chunks codes f =
  let k = Array.length codes and chunk = 1024 in
  let lo = ref 0 in
  while !lo < k do
    let hi = Stdlib.min k (!lo + chunk) in
    f (Array.sub codes !lo (hi - !lo));
    lo := hi
  done

let show_hist h =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) h)

(* The layer timings replay every code one layer at a time; the values
   they see must rebuild the program's histogram. *)
let replay_mismatches what values program =
  let h = Hashtbl.create 16 in
  List.iter
    (fun v -> Hashtbl.replace h v (1 + Option.value ~default:0 (Hashtbl.find_opt h v)))
    values;
  let replayed = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort compare in
  if replayed = program then []
  else
    [ Printf.sprintf "%s: layer replay histogram %s, program %s" what (show_hist replayed)
        (show_hist program) ]

(* Every batch of a run works on the same inputs, so every batch must
   give the same answer. *)
let all_equal what = function
  | [] | [ _ ] -> []
  | first :: rest ->
    if List.for_all (( = ) first) rest then []
    else [ what ^ ": batches disagree" ]

(* ---------------------------------------------------------------- scan *)

let scan_codes = 15_000

(* Aggregates of the default seed; the reference path
   (bbsearch -n 3 --sample 15000 --seed 1 --no-packed --no-prune) gives
   the same. The best witness is re-decided on the reference path on
   every run. *)
let scan_pinned =
  (* num_threshold, num_reject_all, num_aborted, best_eta, histogram *)
  (3722, 3686, 0, 3, [ (2, 3719); (3, 3) ])

let scan_aggregates (r : Busy_beaver.scan_result) =
  ( r.num_threshold,
    r.num_reject_all,
    r.num_aborted,
    r.best_eta,
    r.histogram )

let eta_key = function
  | Eta_search.Eta e -> Some e
  | Eta_search.Always_accepts -> Some 2
  | Eta_search.Always_rejects | Eta_search.Not_threshold _ -> None

(* Inputs [Eta_search.find] decided before returning [r]: it stops at
   the first input that breaks the threshold pattern. *)
let inputs_checked p r =
  let valid = Fair_semantics.valid_inputs_single p ~max:max_input in
  match r with
  | Eta_search.Not_threshold ([| i |], _) -> List.filter (fun j -> j <= i) valid
  | _ -> valid

let scan_workload ~seed =
  let codes = sample_codes ~seed ~count:scan_codes in
  let sym = Busy_beaver.Symmetry.make n in
  let results = ref [] and replay = ref [] in
  let batch w =
    let r =
      w.span "busy_beaver.scan" (fun () ->
          Busy_beaver.scan ~n ~sample:(scan_codes, seed) ())
    in
    results := r :: !results;
    { attempted = r.num_protocols; good = r.num_protocols - r.num_aborted }
  in
  let oracle () =
    match !results with
    | [] -> [ "scan: no batch ran" ]
    | r :: _ ->
      let agg = scan_aggregates r in
      !replay
      @ all_equal "scan" (List.map scan_aggregates !results)
      @ (if r.num_protocols = scan_codes then []
         else [ Printf.sprintf "scan: %d protocols, expected %d" r.num_protocols scan_codes ])
      @ (match r.best with
         | None -> if r.best_eta = 0 then [] else [ "scan: best_eta without witness" ]
         | Some p ->
           (* the reference multiset path must re-decide the witness *)
           let again = Eta_search.find ~packed:false p ~max_input in
           if eta_key again = Some r.best_eta then []
           else
             [ Format.asprintf "scan: witness %s re-decided as %a, scan said eta = %d"
                 p.Population.name Eta_search.pp_result again r.best_eta ])
      @
      if seed = default_seed && agg <> scan_pinned then
        let t, ra, ab, be, h = agg in
        [ Printf.sprintf
            "scan: default-seed aggregates differ from the pinned ones: \
             threshold %d reject_all %d aborted %d best %d hist %s"
            t ra ab be (show_hist h) ]
      else []
  in
  let layers sp c =
    (* the same codes again, one layer at a time *)
    let decoded = ref 0 and configs = ref 0 and hist_probe = ref [] in
    let (), probe =
      diffing @@ fun () ->
      iter_chunks codes (fun chunk ->
        let canon =
          Spans.with_span sp "busy_beaver.symmetry" (fun () ->
              Array.map
                (fun (assignment, output_bits) ->
                  Busy_beaver.Symmetry.canonical sym ~assignment ~output_bits)
                chunk)
        in
        let protocols =
          Spans.with_span sp "busy_beaver.decode" (fun () ->
              Array.to_list canon
              |> List.filter (fun (_, o) -> o <> 0)
              |> List.map decode)
        in
        decoded := !decoded + List.length protocols;
        let verdicts =
          Spans.with_span sp "eta_search.find" (fun () ->
              List.map
                (fun p -> (p, Eta_search.find ~packed:true ~incremental:false p ~max_input))
                protocols)
        in
        List.iter
          (fun (_, r) ->
            match eta_key r with Some e -> hist_probe := e :: !hist_probe | None -> ())
          verdicts;
        let graphs =
          Spans.with_span sp "configgraph.packed.explore" (fun () ->
              List.concat_map
                (fun (p, r) ->
                  List.map
                    (fun i -> Configgraph.Packed.explore p (Population.initial_single p i))
                    (inputs_checked p r))
                verdicts)
        in
        List.iter (fun g -> configs := !configs + Configgraph.Packed.num_configs g) graphs;
        Spans.with_span sp "fair.scc" (fun () ->
            List.iter
              (fun g ->
                ignore (Scc.bottom_components (Scc.compute g.Configgraph.Packed.succ)))
              graphs))
    in
    replay :=
      replay_mismatches "scan" !hist_probe (List.hd !results).histogram
      @
      if c "configgraph.packed_explorations" = c "configgraph.explorations" then []
      else [ "scan: some explorations left the packed path" ];
    [
      ("busy_beaver.codes", float_of_int (c "bbsearch.protocols_scanned"));
      ( "busy_beaver.symmetry_ns_per_code",
        ns_per (Spans.self_s sp "busy_beaver.symmetry") scan_codes );
      ( "busy_beaver.decode_ns_per_protocol",
        ns_per (Spans.self_s sp "busy_beaver.decode") !decoded );
      ("eta_search.inputs_checked", float_of_int (c "eta_search.inputs_checked"));
      ( "eta_search.ns_per_input",
        ns_per (Spans.self_s sp "eta_search.find") (probe "eta_search.inputs_checked") );
      ("configgraph.packed.configs", float_of_int (c "configgraph.configs"));
      ("configgraph.packed.edges", float_of_int (c "configgraph.edges"));
      ( "configgraph.packed.ns_per_config",
        ns_per (Spans.self_s sp "configgraph.packed.explore") !configs );
      ("fair.sccs", float_of_int (c "fair.sccs"));
      ("fair.bottom_sccs", float_of_int (c "fair.bottom_sccs"));
      ("fair.scc_ns_per_config", ns_per (Spans.self_s sp "fair.scc") !configs);
    ]
  in
  { batch; oracle; layers }

(* --------------------------------------------------------------- reach *)

let reach_codes = 10_000

(* max_f, num_unreachable, histogram of the default seed *)
let reach_pinned = (4, 3072, [ (2, 6666); (3, 241); (4, 21) ])

let reach_aggregates (r : Section_4_1.scan_result) =
  (r.max_f, r.num_unreachable, r.histogram)

let min_accepting p =
  try Section_4_1.min_accepting_input p ~max_input
  with Configgraph.Too_many_configs _ -> None

let reach_workload ~seed =
  let codes = sample_codes ~seed ~count:reach_codes in
  let results = ref [] and replay = ref [] in
  let batch w =
    let r =
      w.span "section_4_1.scan" (fun () ->
          Section_4_1.scan ~n ~sample:(reach_codes, seed) ())
    in
    results := r :: !results;
    { attempted = r.num_protocols; good = r.num_protocols }
  in
  let oracle () =
    match !results with
    | [] -> [ "reach: no batch ran" ]
    | r :: _ ->
      let total = List.fold_left (fun acc (_, c) -> acc + c) r.num_unreachable r.histogram in
      !replay
      @ all_equal "reach" (List.map reach_aggregates !results)
      @ (if r.num_protocols = reach_codes && total = reach_codes then []
         else [ Printf.sprintf "reach: %d protocols, %d classified, expected %d"
                  r.num_protocols total reach_codes ])
      @ (if r.max_f = 0 then []
         else
           (* the first sampled protocol whose minimum accepting input
              is max_f, re-checked on the reference function *)
           match
             Array.to_seq codes
             |> Seq.map decode
             |> Seq.find (fun p -> min_accepting p = Some r.max_f)
           with
           | Some _ -> []
           | None -> [ Printf.sprintf "reach: no sampled protocol attains max_f = %d" r.max_f ])
      @
      if seed = default_seed && reach_aggregates r <> reach_pinned then
        [ Printf.sprintf
            "reach: default-seed aggregates differ from the pinned ones: \
             max_f %d unreachable %d hist %s"
            r.max_f r.num_unreachable (show_hist r.histogram) ]
      else []
  in
  let layers sp c =
    let configs = ref 0 and hist_probe = ref [] in
    iter_chunks codes (fun chunk ->
        let protocols =
          Spans.with_span sp "busy_beaver.decode" (fun () ->
              Array.to_list (Array.map decode chunk))
        in
        let fs =
          Spans.with_span sp "section_4_1.min_accepting_input" (fun () ->
              List.map (fun p -> (p, min_accepting p)) protocols)
        in
        List.iter
          (fun (_, f) -> match f with Some i -> hist_probe := i :: !hist_probe | None -> ())
          fs;
        (* the graphs min_accepting_input built: every valid input up to
           the minimum (or the cutoff), for protocols with an output-1
           state *)
        let graphs =
          Spans.with_span sp "configgraph.explore" (fun () ->
              List.concat_map
                (fun (p, f) ->
                  if not (Array.exists Fun.id p.Population.output) then []
                  else
                    let last = Option.value f ~default:max_input in
                    Fair_semantics.valid_inputs_single p ~max:last
                    |> List.map (fun i ->
                           (p, Configgraph.explore ~max_configs:60_000 p
                                 (Population.initial_single p i))))
                fs)
        in
        List.iter (fun (_, g) -> configs := !configs + Configgraph.num_configs g) graphs;
        Spans.with_span sp "configgraph.can_reach" (fun () ->
            List.iter
              (fun (p, g) ->
                ignore
                  (Configgraph.can_reach g ~src:g.Configgraph.root (fun c ->
                       Population.output_of_config p c = Some true)))
              graphs));
    replay :=
      replay_mismatches "reach" !hist_probe (List.hd !results).histogram
      @
      if c "configgraph.packed_explorations" = 0 then []
      else [ "reach: explorations took the packed path" ];
    [
      ("busy_beaver.codes", float_of_int reach_codes);
      ( "busy_beaver.decode_ns_per_protocol",
        ns_per (Spans.self_s sp "busy_beaver.decode") reach_codes );
      ("configgraph.configs", float_of_int (c "configgraph.configs"));
      ("configgraph.ns_per_config", ns_per (Spans.self_s sp "configgraph.explore") !configs);
      ( "configgraph.can_reach_ns_per_config",
        ns_per (Spans.self_s sp "configgraph.can_reach") !configs );
    ]
  in
  { batch; oracle; layers }

(* ------------------------------------------------------------ simulate *)

type sim_row = {
  entry : string;
  input : int array;
  backend : Ensemble.backend;
  trials : int;
}

(* Both engines on the same rows where they overlap: the uniform
   scheduler pays for every interaction, the SSA only for productive
   reactions. Majority at 60+40 exhausts its 5M-step budget, and a
   mod-3-1 trial can stop on a wrong output once its quiet window
   passes: known defects of the convergence test, kept in the mix and
   counted against ok_frac and goodput. *)
let sim_rows =
  let u = Ensemble.uniform () and g = Ensemble.gillespie () in
  [
    { entry = "flock-succinct-4"; input = [| 1000 |]; backend = u; trials = 60 };
    { entry = "threshold-binary-13"; input = [| 1000 |]; backend = u; trials = 60 };
    { entry = "mod-3-1"; input = [| 400 |]; backend = u; trials = 15 };
    { entry = "majority"; input = [| 60; 40 |];
      backend = Ensemble.uniform ~max_steps:5_000_000 (); trials = 3 };
    { entry = "flock-succinct-4"; input = [| 1000 |]; backend = g; trials = 100 };
    { entry = "threshold-binary-13"; input = [| 1000 |]; backend = g; trials = 100 };
  ]

let is_uniform row = match row.backend with Ensemble.Uniform _ -> true | _ -> false

let simulate_workload ~seed =
  let rows =
    List.mapi
      (fun i row ->
        let e = catalog row.entry in
        (i, row, e.Catalog.build (), Predicate.eval e.Catalog.spec row.input))
      sim_rows
  in
  let results = ref [] in
  let batch w =
    let ensembles =
      List.map
        (fun (i, row, p, expected) ->
          let name = if is_uniform row then "simulator.ensemble" else "gillespie.ensemble" in
          let e =
            w.span name (fun () ->
                Ensemble.run_input ~jobs:1 ~backend:row.backend
                  ~seed:((seed * 64) + i) ~trials:row.trials p row.input)
          in
          (row, expected, e))
        rows
    in
    results := ensembles :: !results;
    List.fold_left
      (fun acc (row, expected, e) ->
        let good =
          Array.fold_left
            (fun g (t : Ensemble.trial) ->
              if t.converged && t.output = Some expected then g + 1 else g)
            0 e.Ensemble.trials
        in
        { attempted = acc.attempted + row.trials; good = acc.good + good })
      { attempted = 0; good = 0 } ensembles
  in
  let oracle () =
    match !results with
    | [] -> [ "simulate: no batch ran" ]
    | last :: _ ->
      all_equal "simulate"
        (List.map (List.map (fun (_, _, e) -> Ensemble.summary e)) !results)
      @ List.filter_map
          (fun (row, expected, e) ->
            (* the majority over converged trials; an ensemble in which
               no trial converged makes no claim *)
            let acc, rej =
              Array.fold_left
                (fun (a, r) (t : Ensemble.trial) ->
                  match t.output with
                  | Some b when t.converged -> if b then (a + 1, r) else (a, r + 1)
                  | _ -> (a, r))
                (0, 0) e.Ensemble.trials
            in
            if acc + rej = 0 || (if expected then acc > rej else rej > acc) then None
            else
              Some
                (Printf.sprintf
                   "simulate: %s converged trials output %d:%d (accept:reject), spec %b"
                   row.entry acc rej expected))
          last
  in
  let layers sp c =
    (* interactions after the last output change, from the trial records
       of the traced batch *)
    let last = match !results with last :: _ -> last | [] -> [] in
    let quiet, steps =
      List.fold_left
        (fun acc (row, _, e) ->
          if not (is_uniform row) then acc
          else
            let pop = float_of_int (Array.fold_left ( + ) 0 row.input) in
            Array.fold_left
              (fun (q, s) (t : Ensemble.trial) ->
                (q + t.steps - int_of_float (Float.round (t.parallel_time *. pop)), s + t.steps))
              acc e.Ensemble.trials)
        (0, 0) last
    in
    let wrong_stops =
      List.fold_left
        (fun acc (row, expected, e) ->
          if not (is_uniform row) then acc
          else
            Array.fold_left
              (fun n (t : Ensemble.trial) ->
                if t.converged && t.output <> Some expected then n + 1 else n)
              acc e.Ensemble.trials)
        0 last
    in
    [
      ("simulator.interactions", float_of_int (c "sim.steps"));
      ( "simulator.ns_per_interaction",
        ns_per (Spans.self_s sp "simulator.ensemble") (c "sim.steps") );
      ("simulator.quiet_share", per (float_of_int quiet) steps);
      ("simulator.budget_exhausted", float_of_int (c "sim.runs" - c "sim.converged_runs"));
      ("simulator.wrong_stops", float_of_int wrong_stops);
      ("gillespie.reactions", float_of_int (c "gillespie.steps"));
      ( "gillespie.ns_per_reaction",
        ns_per (Spans.self_s sp "gillespie.ensemble") (c "gillespie.steps") );
      ("gillespie.propensity_updates", float_of_int (c "gillespie.propensity_updates"));
    ]
  in
  { batch; oracle; layers }

(* ------------------------------------------------------------- certify *)

(* One stable-set-heavy protocol and two Hilbert-heavy ones, with the
   threshold each computes: a certificate must bound it from above. *)
let certify_rows = [ ("flock-succinct-5", 32); ("threshold-unary-7", 7); ("threshold-binary-29", 29) ]

let certify_workload ~seed =
  let protocols =
    List.map (fun (name, eta) -> ((catalog name).Catalog.build (), eta)) certify_rows
  in
  let results = ref [] in
  let batch w =
    let certs =
      List.map
        (fun (p, _) ->
          match w.span "certificate.construct" (fun () -> Certificate.construct ~seed p) with
          | Error e -> (p, Error e)
          | Ok c -> (p, Ok (c, w.span "certificate.check" (fun () -> Certificate.check c))))
        protocols
    in
    results := certs :: !results;
    let good =
      List.length (List.filter (function _, Ok (_, true) -> true | _ -> false) certs)
    in
    { attempted = List.length certs; good }
  in
  let oracle () =
    match !results with
    | [] -> [ "certify: no batch ran" ]
    | last :: _ ->
      let key certs =
        List.map
          (fun (_, r) ->
            match r with
            | Ok (c, ok) -> Some (c.Certificate.a, c.Certificate.m, c.Certificate.b, ok)
            | Error _ -> None)
          certs
      in
      all_equal "certify" (List.map key !results)
      @ List.concat_map
          (fun ((p, r), (_, eta)) ->
            let name = p.Population.name in
            (match r with
             | Error e -> [ Printf.sprintf "certify: %s: %s" name e ]
             | Ok (_, false) -> [ "certify: " ^ name ^ ": check rejected the certificate" ]
             | Ok (c, true) ->
               if c.Certificate.a >= eta then []
               else [ Printf.sprintf "certify: %s: bound %d below the threshold %d"
                        name c.Certificate.a eta ])
            @
            if Potential.check_corollary_5_7 p (Potential.basis p) then []
            else [ "certify: " ^ name ^ ": Corollary 5.7 fails" ])
          (List.combine last protocols)
  in
  let layers sp c =
    (* The stages construct runs internally, called one at a time, and
       construct again right after them: its self time is that
       construct minus the stages, timed back to back so that a slower
       stretch of a shared machine hits both sides alike. *)
    let probes =
      List.map
        (fun (p, _) ->
          let (), probe =
            diffing (fun () ->
                ignore (Spans.with_span sp "saturation.find" (fun () -> Saturation.find p));
                ignore (Spans.with_span sp "stable_sets.analyse" (fun () -> Stable_sets.analyse p));
                ignore (Spans.with_span sp "potential.basis" (fun () -> Potential.basis p)))
          in
          ignore
            (Spans.with_span sp "certificate.construct.again" (fun () ->
                 Certificate.construct ~seed p));
          probe)
        protocols
    in
    let probe name = List.fold_left (fun acc f -> acc + f name) 0 probes in
    let s = Spans.self_s sp in
    let b_cand = probe "backward.candidates" and h_cand = probe "hilbert.candidates" in
    [
      ("stable_sets.analyse_s", s "stable_sets.analyse");
      ("backward.candidates", float_of_int b_cand);
      ("backward.admit_ratio", per (float_of_int (probe "backward.added")) b_cand);
      ("backward.ns_per_candidate", ns_per (s "stable_sets.analyse") b_cand);
      ("hilbert.basis_s", s "potential.basis");
      ("hilbert.candidates", float_of_int h_cand);
      ("hilbert.yield", per (float_of_int (probe "hilbert.basis_elements")) h_cand);
      ("hilbert.ns_per_candidate", ns_per (s "potential.basis") h_cand);
      ("saturation.find_s", s "saturation.find");
      ("certificate.construct_s", s "certificate.construct");
      ("certificate.check_s", s "certificate.check");
      ( "certificate.construct_self_s",
        s "certificate.construct.again" -. s "saturation.find" -. s "stable_sets.analyse"
        -. s "potential.basis" );
      ("certificate.stable_recomputes", float_of_int (c "stable_sets.analyses"));
    ]
  in
  { batch; oracle; layers }

(* ------------------------------------------------------------- metrics *)

let workloads =
  [
    ("scan", scan_workload);
    ("reach", reach_workload);
    ("simulate", simulate_workload);
    ("certify", certify_workload);
  ]

let timed f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  (r, Obs.Clock.elapsed_s t0)

(* Metric units live in BENCHMARK.json; run.py attaches them and reads
   0 for a per-layer metric the workload does not report. *)
let print_result ~correct ~attempted ~failed metrics =
  let fields = List.map (fun (name, v) -> Printf.sprintf "%S: %.17g" name v) metrics in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let report_oracle mismatches =
  List.iter (fun m -> Printf.eprintf "oracle mismatch: %s\n%!" m) mismatches;
  mismatches = []

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a in
  if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* Set-up runs once before every batch, so its samples spread over the
   run like the batches do; both timings are medians. The batches all
   use the inputs of the first set-up. *)
let run_plain ~name ~prepare ~seed ~seconds =
  let first = ref None in
  let setups = ref [] and walls = ref [] and sums = ref [] in
  let t_start = Obs.Clock.now_ns () in
  (* closed loop: the next batch starts when the previous one ends, and
     no batch starts that would end past the run length *)
  let rec loop () =
    let fresh, setup = timed (fun () -> prepare ~seed) in
    let w = match !first with Some w -> w | None -> first := Some fresh; fresh in
    let s, dt = timed (fun () -> w.batch plain) in
    setups := setup :: !setups;
    walls := dt :: !walls;
    sums := s :: !sums;
    if List.length !walls < 3 || Obs.Clock.elapsed_s t_start +. dt <= seconds then loop ()
  in
  loop ();
  let w = Option.get !first in
  let mismatches = w.oracle () in
  let correct = report_oracle mismatches in
  let attempted = List.fold_left (fun a s -> a + s.attempted) 0 !sums in
  let good = List.fold_left (fun a s -> a + s.good) 0 !sums in
  let batches = List.length !walls in
  let wall = median !walls in
  let good_per_batch = float_of_int good /. float_of_int batches in
  Printf.eprintf "%s: seed %d, %d batches, walls %s s\n%!" name seed batches
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !walls));
  print_result ~correct ~attempted ~failed:(List.length mismatches)
    [
      ("wall_s", wall);
      ("setup_s", median !setups);
      ("ok_frac", float_of_int good /. float_of_int attempted);
      ("goodput", good_per_batch /. wall);
    ]

let run_traced ~name ~prepare ~seed ~spans_out =
  let w = prepare ~seed in
  (* a warm-up batch, so neither timed pass pays for heap growth *)
  let s_warm = w.batch plain in
  let s_plain, wall_plain = timed (fun () -> w.batch plain) in
  let sp = Spans.create (Printf.sprintf "%s-%d-%d" name seed (Unix.getpid ())) in
  Obs.Metrics.set_enabled true;
  let (s_traced, wall_traced), main =
    diffing (fun () ->
        timed (fun () ->
            Spans.with_span sp ("batch." ^ name) (fun () ->
                w.batch { span = (fun label f -> Spans.with_span sp label f) })))
  in
  let layers = Spans.with_span sp ("layers." ^ name) (fun () -> w.layers sp main) in
  Obs.Metrics.set_enabled false;
  let mismatches = w.oracle () in
  let correct = report_oracle mismatches in
  Option.iter (Spans.write sp) spans_out;
  Printf.eprintf "%s: seed %d, untraced %.4f s, traced %.4f s\n%!" name seed wall_plain
    wall_traced;
  let attempted = s_warm.attempted + s_plain.attempted + s_traced.attempted in
  print_result ~correct ~attempted ~failed:(List.length mismatches)
    (("trace.overhead", wall_traced /. wall_plain) :: layers)

let usage () =
  prerr_endline
    "usage: bench --workload scan|reach|simulate|certify --seed N --seconds S \
     --trace 0|1 [--spans FILE]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int_opt k default =
    match get k with
    | None -> default
    | Some v -> (match int_of_string_opt v with Some i -> i | None -> usage ())
  in
  let name = Option.value (get "workload") ~default:"" in
  let prepare = match List.assoc_opt name workloads with Some p -> p | None -> usage () in
  let seed = int_opt "seed" default_seed in
  let seconds = float_of_int (int_opt "seconds" 10) in
  match int_opt "trace" 0 with
  | 0 -> run_plain ~name ~prepare ~seed ~seconds
  | 1 -> run_traced ~name ~prepare ~seed ~spans_out:(get "spans")
  | _ -> usage ()
