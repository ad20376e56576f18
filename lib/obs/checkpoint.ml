type lease = { holder : string; lease_epoch : int }

type t = {
  config_hash : string;
  config : Json.t;
  total_chunks : int;
  state : Json.t option array;
  mutable epoch : int;
  leases : lease option array;
}

let schema = "ppcheckpoint/v2"
let hash_config config = Digest.to_hex (Digest.string (Json.to_string config))

let create ~config ~total_chunks =
  if total_chunks < 0 then invalid_arg "Checkpoint.create: total_chunks >= 0";
  {
    config_hash = hash_config config;
    config;
    total_chunks;
    state = Array.make total_chunks None;
    epoch = 0;
    leases = Array.make total_chunks None;
  }

let check_index who t i =
  if i < 0 || i >= t.total_chunks then
    invalid_arg (Printf.sprintf "Checkpoint.%s: chunk %d of %d" who i t.total_chunks)

let mark_done t i state =
  check_index "mark_done" t i;
  t.state.(i) <- Some state;
  t.leases.(i) <- None

let is_done t i =
  check_index "is_done" t i;
  t.state.(i) <> None

let chunk_state t i =
  check_index "chunk_state" t i;
  t.state.(i)

let num_done t =
  Array.fold_left (fun n s -> if s = None then n else n + 1) 0 t.state

(* ---------------------------------------------------------------- leases *)

let epoch t = t.epoch

let bump_epoch t =
  t.epoch <- t.epoch + 1;
  t.epoch

let set_lease t i ~holder =
  check_index "set_lease" t i;
  t.leases.(i) <- Some { holder; lease_epoch = t.epoch }

let clear_lease t i =
  check_index "clear_lease" t i;
  t.leases.(i) <- None

let lease t i =
  check_index "lease" t i;
  t.leases.(i)

let leased_to t ~holder =
  let acc = ref [] in
  for i = t.total_chunks - 1 downto 0 do
    match t.leases.(i) with
    | Some l when l.holder = holder -> acc := i :: !acc
    | _ -> ()
  done;
  !acc

(* ------------------------------------------------------- config mismatch *)

type field_diff = {
  field : string;
  expected : string option;  (** in the running scan's configuration *)
  found : string option;  (** in the snapshot on disk *)
}

exception Mismatch of { path : string; diff : field_diff list }

(* Field-by-field diff of two configuration objects, rendered as JSON
   snippets. Non-object configurations degrade to a single whole-value
   entry; equal fields are omitted. *)
let config_diff ~expected ~found =
  match (expected, found) with
  | Json.Obj evs, Json.Obj fvs ->
    let keys =
      List.map fst evs @ List.filter (fun k -> not (List.mem_assoc k evs)) (List.map fst fvs)
    in
    List.filter_map
      (fun k ->
        let e = List.assoc_opt k evs and f = List.assoc_opt k fvs in
        if e = f then None
        else
          Some
            {
              field = k;
              expected = Option.map Json.to_string e;
              found = Option.map Json.to_string f;
            })
      keys
  | e, f ->
    if e = f then []
    else
      [
        {
          field = "config";
          expected = Some (Json.to_string e);
          found = Some (Json.to_string f);
        };
      ]

let mismatch_message ~path diff =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "checkpoint %s was written by a different scan configuration:" path);
  if diff = [] then
    Buffer.add_string b " (configurations hash differently but no field-level \
                         diff is available)"
  else
    List.iter
      (fun d ->
        Buffer.add_string b
          (Printf.sprintf "\n  %-16s run has %s, snapshot has %s" d.field
             (Option.value ~default:"(absent)" d.expected)
             (Option.value ~default:"(absent)" d.found)))
      diff;
  Buffer.contents b

let () =
  Printexc.register_printer (function
    | Mismatch { path; diff } -> Some (mismatch_message ~path diff)
    | _ -> None)

(* ----------------------------------------------------------------- JSON *)

let to_json t =
  let chunks =
    Array.to_list t.state
    |> List.mapi (fun i s -> (i, s))
    |> List.filter_map (fun (i, s) ->
           Option.map
             (fun state ->
               Json.Obj [ ("index", Json.Int i); ("state", state) ])
             s)
  in
  let leases =
    Array.to_list t.leases
    |> List.mapi (fun i l -> (i, l))
    |> List.filter_map (fun (i, l) ->
           Option.map
             (fun { holder; lease_epoch } ->
               Json.Obj
                 [
                   ("chunk", Json.Int i);
                   ("holder", Json.String holder);
                   ("epoch", Json.Int lease_epoch);
                 ])
             l)
  in
  Json.Obj
    [
      ("schema", Json.String schema);
      ("config_hash", Json.String t.config_hash);
      ("config", t.config);
      ("total_chunks", Json.Int t.total_chunks);
      ("epoch", Json.Int t.epoch);
      ("chunks", Json.List chunks);
      ("leases", Json.List leases);
    ]

let of_json = function
  | Json.Obj fields ->
    let ( let* ) = Result.bind in
    let* () =
      match List.assoc_opt "schema" fields with
      | Some (Json.String s) when s = schema -> Ok ()
      | Some (Json.String s) -> Error (Printf.sprintf "unknown schema %S" s)
      | _ -> Error "missing \"schema\" field"
    in
    let* config_hash =
      match List.assoc_opt "config_hash" fields with
      | Some (Json.String h) -> Ok h
      | _ -> Error "missing \"config_hash\" field"
    in
    let* config =
      match List.assoc_opt "config" fields with
      | Some j -> Ok j
      | None -> Error "missing \"config\" field"
    in
    let* total_chunks =
      match List.assoc_opt "total_chunks" fields with
      | Some (Json.Int n) when n >= 0 -> Ok n
      | _ -> Error "missing \"total_chunks\" field"
    in
    let state = Array.make total_chunks None in
    let* () =
      match List.assoc_opt "chunks" fields with
      | Some (Json.List l) ->
        let rec go = function
          | [] -> Ok ()
          | Json.Obj cf :: rest ->
            (match (List.assoc_opt "index" cf, List.assoc_opt "state" cf) with
             | Some (Json.Int i), Some s when i >= 0 && i < total_chunks ->
               state.(i) <- Some s;
               go rest
             | Some (Json.Int i), Some _ ->
               Error (Printf.sprintf "chunk index %d out of range" i)
             | _ -> Error "chunk entry needs \"index\" and \"state\"")
          | _ :: _ -> Error "chunk entry must be an object"
        in
        go l
      | _ -> Error "missing \"chunks\" list"
    in
    let* epoch =
      match List.assoc_opt "epoch" fields with
      | Some (Json.Int e) when e >= 0 -> Ok e
      | _ -> Error "missing \"epoch\" field"
    in
    let leases = Array.make total_chunks None in
    let* () =
      match List.assoc_opt "leases" fields with
      | Some (Json.List l) ->
        let rec go = function
          | [] -> Ok ()
          | Json.Obj lf :: rest ->
            (match
               ( List.assoc_opt "chunk" lf,
                 List.assoc_opt "holder" lf,
                 List.assoc_opt "epoch" lf )
             with
             | Some (Json.Int i), Some (Json.String holder), Some (Json.Int e)
               when i >= 0 && i < total_chunks ->
               leases.(i) <- Some { holder; lease_epoch = e };
               go rest
             | Some (Json.Int i), _, _ when i < 0 || i >= total_chunks ->
               Error (Printf.sprintf "lease chunk %d out of range" i)
             | _ -> Error "lease entry needs \"chunk\", \"holder\", \"epoch\"")
          | _ :: _ -> Error "lease entry must be an object"
        in
        go l
      | _ -> Error "missing \"leases\" list"
    in
    Ok { config_hash; config; total_chunks; state; epoch; leases }
  | _ -> Error "checkpoint must be a JSON object"

(* ----------------------------------------------------------------- file *)

(* tmp + rename in the destination directory (the Export pattern): a
   crash mid-write leaves the previous snapshot intact, and a reader
   never sees a torn file *)
let save ~path t =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (Json.to_string (to_json t));
      Out_channel.output_char oc '\n');
  Sys.rename tmp path

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents ->
    (match Json.parse contents with
     | Error e -> Error e
     | Ok j -> of_json j)

(* --------------------------------------------------------------- writer *)

type writer = {
  t : t;
  path : string;
  every_chunks : int;
  every_s : float;
  lock : Mutex.t;
  mutable pending : int;
  mutable last_write_ns : int64;
}

let writer ?(every_chunks = 64) ?(every_s = 30.0) ~path t =
  {
    t;
    path;
    every_chunks = Stdlib.max 1 every_chunks;
    every_s = Float.max 0.05 every_s;
    lock = Mutex.create ();
    pending = 0;
    last_write_ns = Clock.now_ns ();
  }

let locked w f =
  Mutex.lock w.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.lock) f

let snapshot_event w =
  if Events.enabled () then
    Events.emit "checkpoint.snapshot"
      ~data:
        [
          ("path", Json.String w.path);
          ("done", Json.Int (num_done w.t));
          ("total", Json.Int w.t.total_chunks);
        ]

let note_done w i state =
  locked w (fun () ->
      mark_done w.t i state;
      w.pending <- w.pending + 1;
      let now = Clock.now_ns () in
      if
        w.pending >= w.every_chunks
        || Clock.ns_to_s (Int64.sub now w.last_write_ns) >= w.every_s
      then begin
        (* a full disk must not kill the scan; the data survives in the
           accumulators and the next flush can still succeed *)
        (try
           save ~path:w.path w.t;
           snapshot_event w
         with Sys_error _ -> ());
        w.pending <- 0;
        w.last_write_ns <- now
      end)

let flush w =
  locked w (fun () ->
      save ~path:w.path w.t;
      snapshot_event w;
      w.pending <- 0;
      w.last_write_ns <- Clock.now_ns ())
