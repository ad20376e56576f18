module H = Hashtbl.Make (struct
  type t = Mset.t

  let equal = Mset.equal
  let hash = Mset.hash
end)

type t = {
  protocol : Population.t;
  configs : Mset.t array;
  succ : int array array;
  root : int;
  lookup : Mset.t -> int option;
}

exception Too_many_configs of int

(* A minimal growable array (OCaml 5.1 predates Stdlib.Dynarray). *)
module Grow = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create dummy = { data = Array.make 64 dummy; len = 0; dummy }

  let push g x =
    if g.len = Array.length g.data then begin
      let data = Array.make (2 * g.len) g.dummy in
      Array.blit g.data 0 data 0 g.len;
      g.data <- data
    end;
    g.data.(g.len) <- x;
    g.len <- g.len + 1

  let get g i = g.data.(i)
  let set g i x = g.data.(i) <- x
  let to_array g = Array.sub g.data 0 g.len
end

let m_explorations = Obs.Metrics.counter "configgraph.explorations"
let m_configs = Obs.Metrics.counter "configgraph.configs"
let m_edges = Obs.Metrics.counter "configgraph.edges"
let m_packed = Obs.Metrics.counter "configgraph.packed_explorations"
let m_lazy = Obs.Metrics.counter "configgraph.lazy_explorations"

(* -- incremental exploration with on-the-fly SCC detection ------------- *)

exception Stopped

(* Iterative Tarjan where a node's successors are computed the first
   time the DFS enters it ([expand], which interns new nodes as it
   goes), so strongly connected components complete — and bottom ones
   are reported — while the graph is still being discovered. When an
   SCC pops, every successor of its members already has a component
   (its own, or an earlier-popped one), so bottomness is one membership
   scan; [on_bottom] returning [`Stop] abandons the rest of the
   exploration. Node 0 must exist and reach every node ever interned.
   Returns the number of SCCs popped. *)
let lazy_sccs ~expand ~on_bottom =
  (* All bookkeeping lives in flat parallel arrays and int stacks: this
     runs once per configuration of a multi-million-node scan, so the
     only per-node heap allocation is the successor array [expand]
     returns (and a member list per *bottom* component). *)
  let idx = Grow.create (-1) in
  let low = Grow.create 0 in
  let onstk = Grow.create false in
  let comp = Grow.create (-1) in
  let succs = Grow.create [||] in
  let ensure n =
    while idx.Grow.len <= n do
      Grow.push idx (-1);
      Grow.push low 0;
      Grow.push onstk false;
      Grow.push comp (-1);
      Grow.push succs [||]
    done
  in
  let stack = Grow.create 0 in
  (* DFS frames as parallel (node, next-child) int stacks *)
  let fnode = Grow.create 0 in
  let fchild = Grow.create 0 in
  let entries = ref 0 in
  let ncomps = ref 0 in
  let enter v =
    ensure v;
    Grow.set idx v !entries;
    Grow.set low v !entries;
    incr entries;
    Grow.push stack v;
    Grow.set onstk v true;
    Grow.set succs v (expand v);
    Grow.push fnode v;
    Grow.push fchild 0
  in
  let pop_component v =
    let id = !ncomps in
    incr ncomps;
    (* the component is the stack segment from [v]'s slot to the top *)
    let top = stack.Grow.len in
    let base = ref (top - 1) in
    while Grow.get stack !base <> v do
      decr base
    done;
    let base = !base in
    for k = base to top - 1 do
      let w = Grow.get stack k in
      Grow.set onstk w false;
      Grow.set comp w id
    done;
    stack.Grow.len <- base;
    let bottom = ref true in
    let k = ref base in
    while !bottom && !k < top do
      let ss = Grow.get succs (Grow.get stack !k) in
      let j = ref 0 in
      while !bottom && !j < Array.length ss do
        if Grow.get comp ss.(!j) <> id then bottom := false;
        incr j
      done;
      incr k
    done;
    if !bottom then begin
      let members = ref [] in
      for k = top - 1 downto base do
        members := Grow.get stack k :: !members
      done;
      match on_bottom !members with `Stop -> raise Stopped | `Continue -> ()
    end
  in
  let rec loop () =
    if fnode.Grow.len > 0 then begin
      let fi = fnode.Grow.len - 1 in
      let v = Grow.get fnode fi in
      let ss = Grow.get succs v in
      let ci = Grow.get fchild fi in
      if ci < Array.length ss then begin
        Grow.set fchild fi (ci + 1);
        let w = ss.(ci) in
        ensure w;
        if Grow.get idx w = -1 then enter w
        else if Grow.get onstk w then
          Grow.set low v (Stdlib.min (Grow.get low v) (Grow.get idx w))
      end
      else begin
        fnode.Grow.len <- fi;
        fchild.Grow.len <- fi;
        if fi > 0 then begin
          let parent = Grow.get fnode (fi - 1) in
          Grow.set low parent (Stdlib.min (Grow.get low parent) (Grow.get low v))
        end;
        if Grow.get low v = Grow.get idx v then pop_component v
      end;
      loop ()
    end
  in
  (try
     enter 0;
     loop ()
   with Stopped -> ());
  !ncomps

let check_deadline deadline ~configs ~edges =
  match deadline with
  | None -> ()
  | Some d ->
    Obs.Budget.raise_if_expired
      ~consumed:
        [ ("configs", float_of_int configs); ("edges", float_of_int edges) ]
      d

(* Counters of one exploration. Published from a [Fun.protect]
   finaliser, so a run that [Too_many_configs] aborts still reports how
   far it got. [edges] is [None] for a search, which keeps no edges. *)
let publish extra ~configs ~edges =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_explorations;
    List.iter Obs.Metrics.incr extra;
    Obs.Metrics.add m_configs configs;
    Option.iter (Obs.Metrics.add m_edges) edges
  end

(* The successor step shared by every exploration, on both kernels
   below: fire the enabled transitions in transition order into a
   scratch array, drop repeated values keeping the first occurrence,
   intern the survivors in that order (this fixes the node numbering,
   the same on both kernels), then sort the indices and drop the self
   loop and repeats. [sorted_succ idxs n v] is that last part, on the
   first [n] interned indices; insertion sort, as [n] is at most the
   number of transitions. *)
let sorted_succ idxs n v =
  for k = 1 to n - 1 do
    let x = idxs.(k) in
    let j = ref (k - 1) in
    while !j >= 0 && idxs.(!j) > x do
      idxs.(!j + 1) <- idxs.(!j);
      decr j
    done;
    idxs.(!j + 1) <- x
  done;
  let m = ref 0 in
  for k = 0 to n - 1 do
    if idxs.(k) <> v && (k = 0 || idxs.(k - 1) <> idxs.(k)) then incr m
  done;
  let out = Array.make !m 0 in
  let w = ref 0 in
  for k = 0 to n - 1 do
    if idxs.(k) <> v && (k = 0 || idxs.(k - 1) <> idxs.(k)) then begin
      out.(!w) <- idxs.(k);
      incr w
    end
  done;
  out

(* -- the multiset kernel ----------------------------------------------- *)

(* Discovered configurations, their interning table, and scratch space
   for one successor step. Successors are fired into the reused [buf]
   rows, so a step allocates only the configurations it discovers and
   the successor array. *)
type kernel = {
  dim : int;
  pre_a : int array;
  pre_b : int array;
  post_a : int array;
  post_b : int array;
  index : int H.t;
  nodes : Mset.t Grow.t;
  max_configs : int;
  buf : int array array;
  idxs : int array;
  mutable edges : int;
}

let kernel ~max_configs p =
  let nt = Population.num_transitions p and dim = Population.num_states p in
  let field f = Array.map f p.Population.transitions in
  {
    dim;
    pre_a = field (fun t -> fst t.Population.pre);
    pre_b = field (fun t -> snd t.Population.pre);
    post_a = field (fun t -> fst t.Population.post);
    post_b = field (fun t -> snd t.Population.post);
    index = H.create 64;  (* most searches stop within a few dozen nodes *)
    nodes = Grow.create (Mset.zero 0);
    max_configs;
    buf = Array.init nt (fun _ -> Array.make dim 0);
    idxs = Array.make nt 0;
    edges = 0;
  }

(* Node index of [c], adding a copy when it is new (so [c] may be a
   scratch row). *)
let intern k c =
  match H.find_opt k.index c with
  | Some i -> i
  | None ->
    if k.nodes.Grow.len >= k.max_configs then
      raise (Too_many_configs k.max_configs);
    let i = k.nodes.Grow.len in
    let c = Mset.unsafe_of_array (Array.copy (c :> int array)) in
    H.add k.index c i;
    Grow.push k.nodes c;
    i

(* Fire node [v]'s enabled transitions into [buf], keeping the first
   occurrence of each value; returns how many rows are filled. *)
let fire k v =
  let c = (Grow.get k.nodes v :> int array) in
  let n = ref 0 in
  for t = 0 to Array.length k.pre_a - 1 do
    let a = k.pre_a.(t) and b = k.pre_b.(t) in
    if (if a = b then c.(a) >= 2 else c.(a) >= 1 && c.(b) >= 1) then begin
      let s = k.buf.(!n) in
      Array.blit c 0 s 0 k.dim;
      s.(a) <- s.(a) - 1;
      s.(b) <- s.(b) - 1;
      s.(k.post_a.(t)) <- s.(k.post_a.(t)) + 1;
      s.(k.post_b.(t)) <- s.(k.post_b.(t)) + 1;
      let s = Mset.unsafe_of_array s in
      let dup = ref false in
      for j = 0 to !n - 1 do
        if Mset.equal (Mset.unsafe_of_array k.buf.(j)) s then dup := true
      done;
      if not !dup then incr n
    end
  done;
  !n

let expand k v =
  let n = fire k v in
  for j = 0 to n - 1 do
    k.idxs.(j) <- intern k (Mset.unsafe_of_array k.buf.(j))
  done;
  let out = sorted_succ k.idxs n v in
  k.edges <- k.edges + Array.length out;
  out

let explore ?(max_configs = 2_000_000) ?deadline p c0 =
  let k = kernel ~max_configs p in
  let succs = Grow.create [||] in
  let progress = Obs.Progress.create "configgraph.explore" in
  Fun.protect
    ~finally:(fun () ->
      publish [] ~configs:k.nodes.Grow.len ~edges:(Some k.edges))
    (fun () ->
      Obs.Trace.with_span "configgraph.explore" ~cat:"verify"
        ~args:[ ("protocol", p.Population.name) ]
        (fun () ->
          let root = intern k c0 in
          let i = ref 0 in
          while !i < k.nodes.Grow.len do
            if !i land 255 = 0 then begin
              check_deadline deadline ~configs:k.nodes.Grow.len ~edges:k.edges;
              Obs.Progress.tick progress (fun () ->
                  Printf.sprintf "%d configs explored, %d discovered, %d edges"
                    !i k.nodes.Grow.len k.edges)
            end;
            Grow.push succs (expand k !i);
            incr i
          done;
          Obs.Progress.finish progress (fun () ->
              Printf.sprintf "%d configs, %d edges" k.nodes.Grow.len k.edges);
          {
            protocol = p;
            configs = Grow.to_array k.nodes;
            succ = Grow.to_array succs;
            root;
            (* the interning table survives as the O(1) lookup index;
               the rest of the kernel is garbage once this returns *)
            lookup =
              (let index = k.index in
               fun c -> H.find_opt index c);
          }))

let search ?(max_configs = 2_000_000) p c0 pred =
  let k = kernel ~max_configs p in
  let exception Found of int in
  (* a new node is checked the moment it is interned, so the first
     match in discovery order stops the walk *)
  let visit c =
    let before = k.nodes.Grow.len in
    let j = intern k c in
    if j = before && pred (Grow.get k.nodes j) then raise (Found j)
  in
  Fun.protect
    ~finally:(fun () -> publish [] ~configs:k.nodes.Grow.len ~edges:None)
    (fun () ->
      Obs.Trace.with_span "configgraph.search" ~cat:"verify"
        ~args:[ ("protocol", p.Population.name) ]
        (fun () ->
          try
            visit c0;
            let i = ref 0 in
            while !i < k.nodes.Grow.len do
              let n = fire k !i in
              for j = 0 to n - 1 do
                visit (Mset.unsafe_of_array k.buf.(j))
              done;
              incr i
            done;
            None
          with Found j -> Some (Grow.get k.nodes j)))

let num_configs g = Array.length g.configs
let find g c = g.lookup c

let reachable_from g src =
  let n = num_configs g in
  let seen = Array.make n false in
  let stack = ref [ src ] in
  seen.(src) <- true;
  let rec loop () =
    match !stack with
    | [] -> ()
    | v :: rest ->
      stack := rest;
      Array.iter
        (fun w ->
          if not seen.(w) then begin
            seen.(w) <- true;
            stack := w :: !stack
          end)
        g.succ.(v);
      loop ()
  in
  loop ();
  seen

let can_reach g ~src pred =
  let seen = reachable_from g src in
  let n = num_configs g in
  let rec go i =
    if i >= n then false
    else if seen.(i) && pred g.configs.(i) then true
    else go (i + 1)
  in
  go 0

let explore_sccs ?(max_configs = 2_000_000) ?deadline p c0 ~on_bottom =
  let k = kernel ~max_configs p in
  let sccs = ref 0 in
  let progress = Obs.Progress.create "configgraph.explore_sccs" in
  let expand v =
    if v land 255 = 0 then begin
      check_deadline deadline ~configs:k.nodes.Grow.len ~edges:k.edges;
      Obs.Progress.tick progress (fun () ->
          Printf.sprintf "%d configs discovered, %d edges, %d sccs"
            k.nodes.Grow.len k.edges !sccs)
    end;
    expand k v
  in
  Fun.protect
    ~finally:(fun () ->
      publish [ m_lazy ] ~configs:k.nodes.Grow.len ~edges:(Some k.edges))
    (fun () ->
      Obs.Trace.with_span "configgraph.explore_sccs" ~cat:"verify"
        ~args:[ ("protocol", p.Population.name) ]
        (fun () ->
          ignore (intern k c0);
          sccs :=
            lazy_sccs ~expand ~on_bottom:(fun members ->
                on_bottom (List.map (Grow.get k.nodes) members));
          Obs.Progress.finish progress (fun () ->
              Printf.sprintf "%d configs, %d edges, %d sccs" k.nodes.Grow.len
                k.edges !sccs);
          !sccs))

(* ---------------------------------------------------------------------- *)
(* The packed fast path: configurations as immediate ints.

   In the busy-beaver regime (<= 7 states, population <= 255) a
   configuration fits one word at 8 bits per state (see {!Mset.pack}),
   so the exploration above can run with int-keyed interning and zero
   allocation per successor: firing transition t on packed c is
   [c + pdelta.(t)] after an enabledness check on two bit fields. The
   successor step is the multiset kernel's, so the two graphs agree
   index-for-index (a property the test suite checks differentially). *)

module Packed = struct
  type graph = {
    protocol : Population.t;
    configs : int array;
    succ : int array array;
    root : int;
    lookup : int -> int option;
  }

  let applicable p c0 =
    Population.num_states p <= Mset.max_packed_dim
    && Mset.size c0 <= Mset.max_packed_count

  let num_configs g = Array.length g.configs
  let find g c = g.lookup c
  let config g i = Mset.unpack ~dim:(Population.num_states g.protocol) g.configs.(i)

  (* packed configurations are base-256 numbers whose low digits barely
     vary within one graph; mix before bucketing *)
  let hash x =
    let h = x * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land max_int

  (* The multiset kernel's shape on packed ints. The intern table is
     open-addressing (linear probing, load <= 1/2): the per-successor
     membership probe is the scan's hottest operation, so it must not
     allocate. Packed configs are non-negative; -1 marks an empty
     slot. *)
  type kernel = {
    pre_a : int array;  (* bit offsets of the pre-states *)
    pre_b : int array;
    pdelta : int array;
    mutable cap : int;
    mutable keys : int array;
    mutable ids : int array;
    nodes : int Grow.t;
    max_configs : int;
    vals : int array;
    idxs : int array;
    mutable edges : int;
  }

  let kernel ~who ~max_configs p c0 =
    if not (applicable p c0) then
      invalid_arg
        ("Configgraph.Packed." ^ who ^ ": protocol/configuration not packable");
    let nt = Population.num_transitions p in
    let trs = p.Population.transitions in
    {
      pre_a = Array.map (fun t -> 8 * fst t.Population.pre) trs;
      pre_b = Array.map (fun t -> 8 * snd t.Population.pre) trs;
      pdelta = Array.init nt (fun t -> Mset.pack_delta (Population.displacement p t));
      cap = 256;
      keys = Array.make 256 (-1);
      ids = Array.make 256 0;
      nodes = Grow.create 0;
      max_configs;
      vals = Array.make nt 0;
      idxs = Array.make nt 0;
      edges = 0;
    }

  let slot_of keys cap c =
    let mask = cap - 1 in
    let s = ref (hash c land mask) in
    while
      let k = keys.(!s) in
      k <> -1 && k <> c
    do
      s := (!s + 1) land mask
    done;
    !s

  let grow k =
    let cap = 2 * k.cap in
    let keys = Array.make cap (-1) in
    let ids = Array.make cap 0 in
    for s = 0 to k.cap - 1 do
      let c = k.keys.(s) in
      if c <> -1 then begin
        let s' = slot_of keys cap c in
        keys.(s') <- c;
        ids.(s') <- k.ids.(s)
      end
    done;
    k.cap <- cap;
    k.keys <- keys;
    k.ids <- ids

  let intern k c =
    let s = slot_of k.keys k.cap c in
    if k.keys.(s) <> -1 then k.ids.(s)
    else begin
      if k.nodes.Grow.len >= k.max_configs then
        raise (Too_many_configs k.max_configs);
      let i = k.nodes.Grow.len in
      k.keys.(s) <- c;
      k.ids.(s) <- i;
      Grow.push k.nodes c;
      if 2 * i >= k.cap then grow k;
      i
    end

  (* The finished intern table as a lookup, holding on to nothing else
     of the kernel. *)
  let lookup k =
    let keys = k.keys and ids = k.ids and cap = k.cap in
    fun c ->
      let s = slot_of keys cap c in
      if keys.(s) = -1 then None else Some ids.(s)

  let expand k v =
    let c = Grow.get k.nodes v in
    let n = ref 0 in
    for t = 0 to Array.length k.pdelta - 1 do
      let sa = k.pre_a.(t) and sb = k.pre_b.(t) in
      if
        if sa = sb then (c lsr sa) land 0xff >= 2
        else (c lsr sa) land 0xff >= 1 && (c lsr sb) land 0xff >= 1
      then begin
        let c' = c + k.pdelta.(t) in
        let dup = ref false in
        for j = 0 to !n - 1 do
          if k.vals.(j) = c' then dup := true
        done;
        if not !dup then begin
          k.vals.(!n) <- c';
          incr n
        end
      end
    done;
    for j = 0 to !n - 1 do
      k.idxs.(j) <- intern k k.vals.(j)
    done;
    let out = sorted_succ k.idxs !n v in
    k.edges <- k.edges + Array.length out;
    out

  let explore ?(max_configs = 2_000_000) ?deadline p c0 =
    let k = kernel ~who:"explore" ~max_configs p c0 in
    let succs = Grow.create [||] in
    let progress = Obs.Progress.create "configgraph.explore" in
    Fun.protect
      ~finally:(fun () ->
        publish [ m_packed ] ~configs:k.nodes.Grow.len ~edges:(Some k.edges))
      (fun () ->
        Obs.Trace.with_span "configgraph.explore" ~cat:"verify"
          ~args:[ ("protocol", p.Population.name) ]
          (fun () ->
            let root = intern k (Mset.pack c0) in
            let i = ref 0 in
            while !i < k.nodes.Grow.len do
              if !i land 1023 = 0 then begin
                check_deadline deadline ~configs:k.nodes.Grow.len ~edges:k.edges;
                Obs.Progress.tick progress (fun () ->
                    Printf.sprintf "%d configs explored, %d discovered, %d edges"
                      !i k.nodes.Grow.len k.edges)
              end;
              Grow.push succs (expand k !i);
              incr i
            done;
            Obs.Progress.finish progress (fun () ->
                Printf.sprintf "%d configs, %d edges" k.nodes.Grow.len k.edges);
            {
              protocol = p;
              configs = Grow.to_array k.nodes;
              succ = Grow.to_array succs;
              root;
              lookup = lookup k;
            }))

  let explore_sccs ?(max_configs = 2_000_000) ?deadline p c0 ~on_bottom =
    let k = kernel ~who:"explore_sccs" ~max_configs p c0 in
    let sccs = ref 0 in
    let progress = Obs.Progress.create "configgraph.explore_sccs" in
    let expand v =
      if v land 1023 = 0 then begin
        check_deadline deadline ~configs:k.nodes.Grow.len ~edges:k.edges;
        Obs.Progress.tick progress (fun () ->
            Printf.sprintf "%d configs discovered, %d edges, %d sccs"
              k.nodes.Grow.len k.edges !sccs)
      end;
      expand k v
    in
    Fun.protect
      ~finally:(fun () ->
        publish [ m_packed; m_lazy ] ~configs:k.nodes.Grow.len
          ~edges:(Some k.edges))
      (fun () ->
        Obs.Trace.with_span "configgraph.explore_sccs" ~cat:"verify"
          ~args:[ ("protocol", p.Population.name) ]
          (fun () ->
            ignore (intern k (Mset.pack c0));
            sccs :=
              lazy_sccs ~expand ~on_bottom:(fun members ->
                  on_bottom (List.map (Grow.get k.nodes) members));
            Obs.Progress.finish progress (fun () ->
                Printf.sprintf "%d configs, %d edges, %d sccs" k.nodes.Grow.len
                  k.edges !sccs);
            !sccs))
end
