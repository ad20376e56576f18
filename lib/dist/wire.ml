type msg =
  | Hello of { worker : string; pid : int; host : string; sent_s : float }
  | Welcome of {
      config : Obs.Json.t;
      config_hash : string;
      epoch : int;
      total_chunks : int;
      telemetry : bool;
    }
  | Grant of { lo_chunk : int; hi_chunk : int; epoch : int }
  | Result of { chunk : int; epoch : int; state : Obs.Json.t }
  | Heartbeat of {
      worker : string;
      sent_s : float;
      metrics : Obs.Json.t option;
    }
  | Events of { worker : string; origin_s : float; lines : string list }
  | Shutdown

exception Protocol_error of string

let () =
  Printexc.register_printer (function
    | Protocol_error m -> Some (Printf.sprintf "Dist.Wire.Protocol_error: %s" m)
    | _ -> None)

let to_json msg =
  let open Obs.Json in
  match msg with
  | Hello { worker; pid; host; sent_s } ->
      Obj
        [
          ("msg", String "hello");
          ("worker", String worker);
          ("pid", Int pid);
          ("host", String host);
          ("sent_s", Float sent_s);
        ]
  | Welcome { config; config_hash; epoch; total_chunks; telemetry } ->
      Obj
        [
          ("msg", String "welcome");
          ("config", config);
          ("config_hash", String config_hash);
          ("epoch", Int epoch);
          ("total_chunks", Int total_chunks);
          ("telemetry", Bool telemetry);
        ]
  | Grant { lo_chunk; hi_chunk; epoch } ->
      Obj
        [
          ("msg", String "grant");
          ("lo_chunk", Int lo_chunk);
          ("hi_chunk", Int hi_chunk);
          ("epoch", Int epoch);
        ]
  | Result { chunk; epoch; state } ->
      Obj
        [
          ("msg", String "result");
          ("chunk", Int chunk);
          ("epoch", Int epoch);
          ("state", state);
        ]
  | Heartbeat { worker; sent_s; metrics } ->
      Obj
        ([
           ("msg", String "heartbeat");
           ("worker", String worker);
           ("sent_s", Float sent_s);
         ]
        @ match metrics with None -> [] | Some m -> [ ("metrics", m) ])
  | Events { worker; origin_s; lines } ->
      Obj
        [
          ("msg", String "events");
          ("worker", String worker);
          ("origin_s", Float origin_s);
          ("lines", List (Stdlib.List.map (fun l -> String l) lines));
        ]
  | Shutdown -> Obj [ ("msg", String "shutdown") ]

let of_json j =
  let open Obs.Json in
  let field name fields = List.assoc_opt name fields in
  let str name fields =
    match field name fields with
    | Some (String s) -> Ok s
    | _ -> Error (Printf.sprintf "missing string field %S" name)
  in
  let int name fields =
    match field name fields with
    | Some (Int i) -> Ok i
    | _ -> Error (Printf.sprintf "missing int field %S" name)
  in
  let json name fields =
    match field name fields with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let float name fields =
    match field name fields with
    | Some (Float f) -> Ok f
    | _ -> Error (Printf.sprintf "missing float field %S" name)
  in
  let bool name fields =
    match field name fields with
    | Some (Bool b) -> Ok b
    | _ -> Error (Printf.sprintf "missing bool field %S" name)
  in
  let strings name fields =
    match field name fields with
    | Some (List items)
      when Stdlib.List.for_all (function String _ -> true | _ -> false) items
      ->
        Ok (Stdlib.List.filter_map (function String s -> Some s | _ -> None) items)
    | _ -> Error (Printf.sprintf "missing string list field %S" name)
  in
  let ( let* ) = Result.bind in
  match j with
  | Obj fields -> (
      let* kind = str "msg" fields in
      match kind with
      | "hello" ->
          let* worker = str "worker" fields in
          let* pid = int "pid" fields in
          let* host = str "host" fields in
          let* sent_s = float "sent_s" fields in
          Ok (Hello { worker; pid; host; sent_s })
      | "welcome" ->
          let* config = json "config" fields in
          let* config_hash = str "config_hash" fields in
          let* epoch = int "epoch" fields in
          let* total_chunks = int "total_chunks" fields in
          let* telemetry = bool "telemetry" fields in
          Ok (Welcome { config; config_hash; epoch; total_chunks; telemetry })
      | "grant" ->
          let* lo_chunk = int "lo_chunk" fields in
          let* hi_chunk = int "hi_chunk" fields in
          let* epoch = int "epoch" fields in
          Ok (Grant { lo_chunk; hi_chunk; epoch })
      | "result" ->
          let* chunk = int "chunk" fields in
          let* epoch = int "epoch" fields in
          let* state = json "state" fields in
          Ok (Result { chunk; epoch; state })
      | "heartbeat" ->
          let* worker = str "worker" fields in
          let* sent_s = float "sent_s" fields in
          Ok (Heartbeat { worker; sent_s; metrics = field "metrics" fields })
      | "events" ->
          let* worker = str "worker" fields in
          let* origin_s = float "origin_s" fields in
          let* lines = strings "lines" fields in
          Ok (Events { worker; origin_s; lines })
      | "shutdown" -> Ok Shutdown
      | k -> Error (Printf.sprintf "unknown message kind %S" k))
  | _ -> Error "message is not a JSON object"

(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the frame
   checksum of ppdist/v3. Table-driven; crc32 "123456789" = 0xCBF43926. *)
let crc_table =
  lazy
    (Array.init 256 (fun i ->
         let c = ref i in
         for _ = 1 to 8 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* ppdist/v3 framing: "#3 <payload-bytes> <crc32-hex> <payload>\n". *)
let frame payload =
  Printf.sprintf "#3 %d %08x %s\n" (String.length payload) (crc32 payload)
    payload

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    let n =
      try Unix.write fd b !pos (len - !pos)
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    pos := !pos + n
  done

let send ?chaos fd msg =
  let line = frame (Obs.Json.to_string (to_json msg)) in
  match chaos with
  | None -> write_all fd line
  | Some c -> List.iter (write_all fd) (Chaos.apply c line)

type reader = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (** bytes received but not yet cut into lines *)
  scratch : Bytes.t;
  mutable pending : msg list;  (** parsed but not yet handed out *)
  mutable corrupt : int;  (** lines skipped for failing the v3 checks *)
}

let reader fd =
  {
    fd;
    buf = Buffer.create 4096;
    scratch = Bytes.create 65536;
    pending = [];
    corrupt = 0;
  }

let reader_fd r = r.fd
let corrupt_count r = r.corrupt
let m_corrupt = Obs.Metrics.counter "dist.corrupt_frames"

(* The CRC vouched for the payload, so a payload that does not decode
   is a sender bug, not line noise: raise. *)
let parse_payload payload =
  match Obs.Json.parse payload with
  | Error e -> raise (Protocol_error (Printf.sprintf "bad JSON payload: %s" e))
  | Ok j -> (
      match of_json j with
      | Ok m -> m
      | Error e ->
          raise
            (Protocol_error (Printf.sprintf "bad message: %s in %s" e payload)))

(* The payload of a line that starts with "#3 " and whose length and
   CRC both check out; None is a corrupt (truncated, bit-flipped or
   unframed) line. *)
let unframe line =
  let n = String.length line in
  if not (String.starts_with ~prefix:"#3 " line) then None
  else
    match String.index_from_opt line 3 ' ' with
    | None -> None
    | Some sp1 -> (
        match String.index_from_opt line (sp1 + 1) ' ' with
        | None -> None
        | Some sp2 -> (
            let len = int_of_string_opt (String.sub line 3 (sp1 - 3)) in
            let crc =
              int_of_string_opt
                ("0x" ^ String.sub line (sp1 + 1) (sp2 - sp1 - 1))
            in
            match (len, crc) with
            | Some len, Some crc when n - sp2 - 1 = len ->
                let payload = String.sub line (sp2 + 1) len in
                if crc32 payload = crc then Some payload else None
            | _ -> None))

let mark_corrupt r =
  r.corrupt <- r.corrupt + 1;
  Obs.Metrics.incr m_corrupt

(* Classify one complete line. A line that is not a valid v3 frame is
   counted and skipped — never fatal; the sender's recovery machinery
   (lease reclaim, duplicate resend) replaces whatever it carried. *)
let classify r line =
  match unframe line with
  | Some payload -> Some (parse_payload payload)
  | None ->
      mark_corrupt r;
      None

(* Move every complete line of [r.buf] onto [r.pending], keeping the
   trailing partial line (if any) buffered. *)
let cut_lines r =
  let s = Buffer.contents r.buf in
  let n = String.length s in
  let msgs = ref [] in
  let start = ref 0 in
  (try
     while true do
       let nl = String.index_from s !start '\n' in
       let line = String.sub s !start (nl - !start) in
       (if String.length line > 0 then
          match classify r line with
          | Some m -> msgs := m :: !msgs
          | None -> ());
       start := nl + 1
     done
   with Not_found -> ());
  Buffer.clear r.buf;
  if !start < n then Buffer.add_substring r.buf s !start (n - !start);
  r.pending <- r.pending @ List.rev !msgs

(* One read(2); -1 encodes EINTR (retryable, not EOF). *)
let read_once r =
  try Unix.read r.fd r.scratch 0 (Bytes.length r.scratch) with
  | Unix.Unix_error (Unix.EINTR, _, _) -> -1
  | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0

let drain r =
  let n = read_once r in
  if n > 0 then Buffer.add_subbytes r.buf r.scratch 0 n;
  cut_lines r;
  let msgs = r.pending in
  r.pending <- [];
  (msgs, n = 0)

let rec recv r =
  match r.pending with
  | m :: rest ->
      r.pending <- rest;
      Some m
  | [] -> (
      match read_once r with
      | 0 -> None
      | n ->
          if n > 0 then Buffer.add_subbytes r.buf r.scratch 0 n;
          cut_lines r;
          recv r)

(* select(2) that survives signals: EINTR retries with the remaining
   time recomputed on the monotonic clock, so a SIGALRM/SIGCHLD storm
   neither tears the loop down nor stretches the timeout. A negative
   timeout blocks indefinitely, as in [Unix.select]. *)
let select_eintr fds timeout_s =
  let t0 = Obs.Clock.now_ns () in
  let rec go remaining =
    match Unix.select fds [] [] remaining with
    | ready, _, _ -> ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        go
          (if timeout_s < 0.0 then timeout_s
           else Float.max 0.0 (timeout_s -. Obs.Clock.elapsed_s t0))
  in
  go timeout_s

let recv_within r ~timeout_s =
  let t0 = Obs.Clock.now_ns () in
  let rec go () =
    match r.pending with
    | m :: rest ->
        r.pending <- rest;
        `Msg m
    | [] -> (
        let remaining = timeout_s -. Obs.Clock.elapsed_s t0 in
        if remaining < 0.0 then `Timeout
        else
          match select_eintr [ r.fd ] remaining with
          | [] -> `Timeout
          | _ -> (
              match read_once r with
              | 0 -> `Eof
              | n ->
                  if n > 0 then Buffer.add_subbytes r.buf r.scratch 0 n;
                  cut_lines r;
                  go ()))
  in
  go ()
