(* In-memory spans for the traced run. A span is recorded around a call
   (or a loop of calls) into one layer's public functions; spans are
   kept in growable parallel arrays and written out once, when the run
   ends, so no I/O happens inside the measured region. The program's
   own [Obs.Trace] file sink is deliberately not used: its per-event
   writes cost more than the layers being measured. *)

type t = {
  run_id : string;
  mutable names : string array;
  mutable parents : int array;
  mutable starts : int array;
  mutable ends : int array;
  mutable len : int;
  mutable open_ : int list;  (* stack of open span indices, innermost first *)
}

let create run_id =
  {
    run_id;
    names = Array.make 256 "";
    parents = Array.make 256 (-1);
    starts = Array.make 256 0;
    ends = Array.make 256 0;
    len = 0;
    open_ = [];
  }

let now () = Int64.to_int (Obs.Clock.now_ns ())

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- extend t.names "";
  t.parents <- extend t.parents (-1);
  t.starts <- extend t.starts 0;
  t.ends <- extend t.ends 0

(* [with_span t name f] records [name] around [f ()], as a child of the
   innermost open span. *)
let with_span t name f =
  if t.len = Array.length t.names then grow t;
  let id = t.len in
  t.len <- id + 1;
  t.names.(id) <- name;
  t.parents.(id) <- (match t.open_ with p :: _ -> p | [] -> -1);
  t.open_ <- id :: t.open_;
  t.starts.(id) <- now ();
  Fun.protect
    ~finally:(fun () ->
      t.ends.(id) <- now ();
      t.open_ <- List.tl t.open_)
    f

(* Self time of every span: its duration minus the part its children
   cover. Children run sequentially inside their parent (one domain),
   so that part is the sum of their durations. *)
let self_ns t =
  let self = Array.init t.len (fun i -> t.ends.(i) - t.starts.(i)) in
  for i = 0 to t.len - 1 do
    let p = t.parents.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.ends.(i) - t.starts.(i))
  done;
  self

(* Summed self time, in seconds, of every span called [name]. *)
let self_s t name =
  let self = self_ns t in
  let total = ref 0 in
  for i = 0 to t.len - 1 do
    if t.names.(i) = name then total := !total + self.(i)
  done;
  float_of_int !total *. 1e-9

(* One JSON object per line: run id, span id, name, parent id (-1 for a
   root), start and end on the monotonic clock, and self time, all in
   nanoseconds. *)
let write t path =
  let self = self_ns t in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = 0 to t.len - 1 do
        Printf.fprintf oc
          "{\"run\":%S,\"id\":%d,\"name\":%S,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}\n"
          t.run_id i t.names.(i) t.parents.(i) t.starts.(i) t.ends.(i) self.(i)
      done)
