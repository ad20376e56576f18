let min_accepting_input ?(max_configs = 60_000) p ~max_input =
  Eta_search.min_accepting_input ~max_configs p ~max_input

type scan_result = {
  num_protocols : int;
  max_f : int;
  num_unreachable : int;
  num_aborted : int;
  histogram : (int * int) list;
}

let scan ?max_input ?max_configs ?sample ~n () =
  let plan =
    Busy_beaver.plan ~kernel:Min_accepting ?max_input ?max_configs ?sample ~n ()
  in
  let r =
    Busy_beaver.result_of_chunks plan
      (Array.init (Busy_beaver.plan_chunks plan) (fun ci ->
           Some (Busy_beaver.scan_chunk plan ci)))
  in
  {
    num_protocols = r.num_protocols;
    max_f = r.best_eta;
    num_unreachable = r.num_reject_all;
    num_aborted = r.num_aborted;
    histogram = r.histogram;
  }
