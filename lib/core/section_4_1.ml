let min_accepting_input ?(max_configs = 60_000) p ~max_input =
  if not (Array.exists Fun.id p.Population.output) then None
  else begin
    let accepting c = Population.output_of_config p c = Some true in
    let inputs = Fair_semantics.valid_inputs_single p ~max:max_input in
    List.find_opt
      (fun i ->
        Option.is_some
          (Configgraph.search ~max_configs p (Population.initial_single p i)
             accepting))
      inputs
  end

type scan_result = {
  num_protocols : int;
  max_f : int;
  num_unreachable : int;
  histogram : (int * int) list;
}

let scan ?(max_input = 12) ?(max_configs = 60_000) ?sample ~n () =
  let num_protocols = ref 0 in
  let max_f = ref 0 in
  let num_unreachable = ref 0 in
  let histogram = Hashtbl.create 16 in
  Busy_beaver.iter_protocols ?sample ~n (fun p ->
      incr num_protocols;
      match min_accepting_input ~max_configs p ~max_input with
      | Some i ->
        Hashtbl.replace histogram i
          (1 + Option.value (Hashtbl.find_opt histogram i) ~default:0);
        if i > !max_f then max_f := i
      | None -> incr num_unreachable
      | exception Configgraph.Too_many_configs _ -> incr num_unreachable);
  {
    num_protocols = !num_protocols;
    max_f = !max_f;
    num_unreachable = !num_unreachable;
    histogram =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) histogram []
      |> List.sort Stdlib.compare;
  }
