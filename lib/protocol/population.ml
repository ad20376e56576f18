type transition = {
  pre : int * int;
  post : int * int;
}

type t = {
  name : string;
  states : string array;
  transitions : transition array;
  leaders : Mset.t;
  input_vars : string array;
  input_map : int array;
  output : bool array;
  deltas : Intvec.t array;
}

let canon_pair ((a : int), (b : int)) = if a <= b then (a, b) else (b, a)

let transition_of_quad (p, q, p', q') =
  { pre = canon_pair (p, q); post = canon_pair (p', q') }

(* Int comparisons, not polymorphic equality: [make] runs once per
   decoded protocol in the busy-beaver scans. *)
let equal_transition t u =
  let (a : int), (b : int) = t.pre and (a' : int), (b' : int) = t.post in
  a = fst u.pre && b = snd u.pre && a' = fst u.post && b' = snd u.post

let delta_of_transition d { pre = p, q; post = p', q' } =
  let v = Array.make d 0 in
  v.(p) <- v.(p) - 1;
  v.(q) <- v.(q) - 1;
  v.(p') <- v.(p') + 1;
  v.(q') <- v.(q') + 1;
  v

let make ~name ~states ~transitions ?(leaders = []) ~inputs ~output () =
  let d = Array.length states in
  if d = 0 then invalid_arg "Population.make: no states";
  if Array.length output <> d then
    invalid_arg "Population.make: output array has wrong length";
  if inputs = [] then invalid_arg "Population.make: no input variable";
  let check_state what i =
    if i < 0 || i >= d then
      invalid_arg (Printf.sprintf "Population.make: %s state %d out of range" what i)
  in
  List.iter
    (fun (p, q, p', q') ->
      check_state "transition" p;
      check_state "transition" q;
      check_state "transition" p';
      check_state "transition" q')
    transitions;
  List.iter (fun (_, s) -> check_state "input" s) inputs;
  List.iter
    (fun (s, k) ->
      check_state "leader" s;
      if k < 0 then invalid_arg "Population.make: negative leader count")
    leaders;
  let canonical = List.map transition_of_quad transitions in
  let dedup =
    List.fold_left
      (fun acc tr -> if List.exists (equal_transition tr) acc then acc else tr :: acc)
      [] canonical
    |> List.rev
  in
  let transitions = Array.of_list dedup in
  let deltas = Array.map (delta_of_transition d) transitions in
  {
    name;
    states;
    transitions;
    leaders = Mset.of_list d leaders;
    input_vars = Array.of_list (List.map fst inputs);
    input_map = Array.of_list (List.map snd inputs);
    output;
    deltas;
  }

let rename p name = { p with name }

let num_states p = Array.length p.states
let num_transitions p = Array.length p.transitions
let is_leaderless p = Mset.is_zero p.leaders

let is_deterministic p =
  let seen = Hashtbl.create 16 in
  Array.for_all
    (fun tr ->
      if Hashtbl.mem seen tr.pre then false
      else begin
        Hashtbl.add seen tr.pre ();
        true
      end)
    p.transitions

let missing_pairs p =
  let d = num_states p in
  let present = Hashtbl.create 16 in
  Array.iter (fun tr -> Hashtbl.replace present tr.pre ()) p.transitions;
  let acc = ref [] in
  for q = d - 1 downto 0 do
    for p' = q downto 0 do
      if not (Hashtbl.mem present (p', q)) then acc := (p', q) :: !acc
    done
  done;
  !acc

let complete p =
  match missing_pairs p with
  | [] -> p
  | missing ->
    let extra = List.map (fun pr -> { pre = pr; post = pr }) missing in
    let transitions = Array.append p.transitions (Array.of_list extra) in
    let deltas = Array.map (delta_of_transition (num_states p)) transitions in
    { p with transitions; deltas }

let displacement p i = p.deltas.(i)

let displacement_of_multiset p (pi : int array) =
  if Array.length pi <> num_transitions p then
    invalid_arg "Population.displacement_of_multiset: arity mismatch";
  let acc = ref (Intvec.zero (num_states p)) in
  Array.iteri
    (fun i k ->
      if k < 0 then invalid_arg "Population.displacement_of_multiset: negative count";
      if k > 0 then acc := Intvec.add !acc (Intvec.scale k p.deltas.(i)))
    pi;
  !acc

let enabled p c i =
  let { pre = a, b; _ } = p.transitions.(i) in
  if a = b then Mset.get c a >= 2 else Mset.get c a >= 1 && Mset.get c b >= 1

let fire_opt p c i =
  if not (enabled p c i) then None
  else Mset.add_delta c p.deltas.(i)

let fire p c i =
  match fire_opt p c i with
  | Some c' -> c'
  | None -> invalid_arg "Population.fire: transition disabled"

let successors p c =
  let acc = ref [] in
  for i = num_transitions p - 1 downto 0 do
    match fire_opt p c i with
    | Some c' -> acc := (i, c') :: !acc
    | None -> ()
  done;
  !acc

let initial_config p v =
  if Array.length v <> Array.length p.input_vars then
    invalid_arg "Population.initial_config: input arity mismatch";
  let d = num_states p in
  let acc = ref p.leaders in
  Array.iteri
    (fun x count ->
      if count < 0 then invalid_arg "Population.initial_config: negative input";
      acc := Mset.add !acc (Mset.scale count (Mset.singleton d p.input_map.(x))))
    v;
  if Mset.size !acc < 2 then
    invalid_arg "Population.initial_config: populations have at least 2 agents";
  !acc

let initial_single p i =
  if Array.length p.input_vars <> 1 then
    invalid_arg "Population.initial_single: protocol has several input variables";
  initial_config p [| i |]

let output_of_config p c =
  let d = num_states p in
  let rec go i acc =
    if i >= d then acc
    else if Mset.get c i = 0 then go (i + 1) acc
    else begin
      match acc with
      | None -> go (i + 1) (Some p.output.(i))
      | Some b -> if p.output.(i) = b then go (i + 1) acc else None
    end
  in
  go 0 None

let state_index p name =
  let d = num_states p in
  let rec go i =
    if i >= d then raise Not_found
    else if String.equal p.states.(i) name then i
    else go (i + 1)
  in
  go 0

let state_name p i = p.states.(i)

let pp_transition p fmt { pre = a, b; post = a', b' } =
  Format.fprintf fmt "%s,%s ↦ %s,%s" p.states.(a) p.states.(b) p.states.(a')
    p.states.(b')

let pp_config p fmt c = Mset.pp ~names:p.states fmt c

let pp fmt p =
  Format.fprintf fmt "@[<v>protocol %s: %d states, %d transitions%s@," p.name
    (num_states p) (num_transitions p)
    (if is_leaderless p then "" else
       Format.asprintf ", leaders %a" (pp_config p) p.leaders);
  Format.fprintf fmt "  inputs:";
  Array.iteri
    (fun x s ->
      Format.fprintf fmt " %s→%s" p.input_vars.(x) p.states.(s))
    p.input_map;
  Format.fprintf fmt "@,  output-1 states: %s@,"
    (String.concat ", "
       (List.filter_map
          (fun i -> if p.output.(i) then Some p.states.(i) else None)
          (List.init (num_states p) Fun.id)));
  Array.iter (fun tr -> Format.fprintf fmt "  %a@," (pp_transition p) tr)
    p.transitions;
  Format.fprintf fmt "@]"
