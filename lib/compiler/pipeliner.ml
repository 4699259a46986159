type t = {
  ii : int;
  times : int array;
  stages : int;
  res_mii : int;
  rec_mii : int;
  width : int;
}

(* The collector's loop edge, so a loop report takes the edges as they
   are; restated here only to bring its fields into scope. *)
type mod_edge = Schedobs.loop_edge = {
  e_src : int;
  e_dst : int;
  e_kind : Ddg.kind;
  e_latency : int;
  e_distance : int;  (* iterations *)
}

(* Iteration distance of the value a use of [v] at body position [j]
   reads: 0 when an earlier op of the body defines [v], else 1 — the
   previous iteration's definition. *)
let use_distance ops j v =
  let rec defined_before i =
    i < j && (Ir.defs ops.(i) = Some v || defined_before (i + 1))
  in
  if defined_before 0 then 0 else 1

(* Intra-iteration edges (distance 0) from the block DDG [g], plus
   loop-carried flow edges (distance 1): a use with no earlier def in
   the body reads the previous iteration's (last) def. *)
let mod_edges g ops =
  let n = Array.length ops in
  let intra =
    List.map
      (fun (e : Ddg.edge) ->
        { e_src = e.src; e_dst = e.dst; e_latency = e.latency;
          e_distance = 0; e_kind = e.kind })
      (Ddg.edges g)
  in
  let last_def v =
    let rec loop i acc =
      if i >= n then acc
      else loop (i + 1) (if Ir.defs ops.(i) = Some v then Some i else acc)
    in
    loop 0 None
  in
  let carried = ref [] in
  for j = 0 to n - 1 do
    List.iter
      (fun v ->
        if use_distance ops j v = 1 then
          match last_def v with
          | Some i ->
            carried := { e_src = i; e_dst = j; e_latency = 1;
                         e_distance = 1; e_kind = Ddg.Flow }
                       :: !carried
          | None -> ())
      (Ir.uses ops.(j))
  done;
  (* Carried output dependences: two iterations' definitions of one
     vreg must not land in the same cycle (needed when modulo variable
     expansion degenerates to a single copy). *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      match (Ir.defs ops.(i), Ir.defs ops.(j)) with
      | Some a, Some b when a = b && j <= i ->
        carried := { e_src = i; e_dst = j; e_latency = 1;
                     e_distance = 1; e_kind = Ddg.Output }
                   :: !carried
      | _ -> ()
    done
  done;
  (* Carried memory ordering: a store conflicts with every memory op of
     the next iteration. *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if
        Ir.is_mem ops.(i) && Ir.is_mem ops.(j)
        && (Ir.is_store ops.(i) || Ir.is_store ops.(j))
        && j <= i
      then
        carried :=
          { e_src = i; e_dst = j;
            e_latency = (if Ir.is_store ops.(i) then 1 else 0);
            e_distance = 1; e_kind = Ddg.Mem }
          :: !carried
    done
  done;
  intra @ List.rev !carried

(* ------------------------------------------------------------------ *)
(* Lower bounds                                                        *)

(* Resource classes of the XIMD-1 datapath: every FU is universal, so
   all operations compete for row slots; memory operations are reported
   as their own class so configurations with dedicated memory ports
   (ROADMAP item 5) drop into the same accounting. *)
let res_classes ~width ops =
  let n = Array.length ops in
  let mem = Array.fold_left (fun a op -> if Ir.is_mem op then a + 1 else a) 0 ops in
  let mii c = if c = 0 then 0 else (c + width - 1) / width in
  [ { Schedobs.cls = "slots"; cls_ops = n; cap = width; cls_mii = mii n };
    { Schedobs.cls = "mem"; cls_ops = mem; cap = width; cls_mii = mii mem } ]

(* An II is recurrence-feasible iff the dependence graph weighted
   [latency - II * distance] has no strictly positive cycle (then every
   circuit C satisfies II >= ceil(latency(C) / distance(C))).  Detection
   is longest-path Bellman-Ford: relax all edges n times, then any edge
   that still relaxes witnesses a positive cycle, recovered by walking
   predecessor edges until a node repeats. *)
let positive_cycle n edges ii =
  if n = 0 then None
  else begin
    let dist = Array.make n 0 in
    let pred = Array.make n None in
    let relax e =
      let w = e.e_latency - (ii * e.e_distance) in
      if dist.(e.e_src) + w > dist.(e.e_dst) then begin
        dist.(e.e_dst) <- dist.(e.e_src) + w;
        pred.(e.e_dst) <- Some e;
        true
      end
      else false
    in
    for _ = 1 to n do
      List.iter (fun e -> ignore (relax e)) edges
    done;
    let witness =
      List.fold_left
        (fun acc e ->
          match acc with Some _ -> acc | None -> if relax e then Some e.e_dst else None)
        None edges
    in
    match witness with
    | None -> None
    | Some v ->
      (* Walk predecessor edges from the witness until a node repeats;
         the repeated node is on the cycle. *)
      let seen = Array.make n false in
      let rec find_entry node steps =
        if steps > n then None
        else if seen.(node) then Some node
        else begin
          seen.(node) <- true;
          match pred.(node) with
          | None -> None
          | Some e -> find_entry e.e_src (steps + 1)
        end
      in
      (match find_entry v 0 with
       | None -> None
       | Some entry ->
         let rec collect node acc =
           match pred.(node) with
           | None -> acc  (* unreachable for a cycle node *)
           | Some e ->
             let acc = e :: acc in
             if e.e_src = entry then acc else collect e.e_src acc
         in
         Some (collect entry []))
  end

let circuit_of_edges = function
  | None | Some [] -> None
  | Some (first :: _ as cycle) ->
    Some
      { Schedobs.c_ops =
          first.e_src :: List.filter_map
                         (fun e -> if e.e_dst = first.e_src then None else Some e.e_dst)
                         cycle;
        c_latency = List.fold_left (fun a e -> a + e.e_latency) 0 cycle;
        c_distance = List.fold_left (fun a e -> a + e.e_distance) 0 cycle }

let rec_bound n edges =
  (* All cycles carry distance >= 1 (intra edges go forward in program
     order), so II = total latency + 1 is always feasible: the search
     below terminates. *)
  let max_ii =
    1 + List.fold_left (fun a e -> a + max 0 e.e_latency) 0 edges
  in
  let rec find ii =
    if ii >= max_ii then ii
    else if positive_cycle n edges ii = None then ii
    else find (ii + 1)
  in
  let rec_mii = find 1 in
  (* The binding circuit: any positive cycle at II - 1.  By maximality
     its latency/distance ratio rounds up to exactly rec_mii. *)
  let circuit =
    if rec_mii > 1 then circuit_of_edges (positive_cycle n edges (rec_mii - 1))
    else None
  in
  (rec_mii, circuit)

let bounds_of ~width ops edges =
  let n = Array.length ops in
  let classes = res_classes ~width ops in
  let res_mii =
    List.fold_left (fun a (c : Schedobs.res_class) -> max a c.cls_mii) 0
      classes
  in
  let rec_mii, circuit = rec_bound n edges in
  { Schedobs.res_classes = classes; res_mii; rec_mii; circuit }

let bounds ~width ops = bounds_of ~width ops (mod_edges (Ddg.build ops) ops)

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)

(* A dependence the flat schedule [times] breaks at [ii], if any. *)
let violated ~ii times edges =
  List.find_opt
    (fun e -> times.(e.e_dst) < times.(e.e_src) + e.e_latency - (ii * e.e_distance))
    edges

let try_ii ~width ~edges ~priority n ii =
  let times = Array.make n (-1) in
  let slot_load = Array.make ii 0 in
  let order =
    List.sort
      (fun a b -> compare priority.(b) priority.(a))
      (List.init n Fun.id)
  in
  let failure = ref None in
  List.iter
    (fun i ->
      if !failure = None then begin
        let earliest = ref 0 in
        List.iter
          (fun e ->
            if e.e_dst = i && times.(e.e_src) >= 0 then
              earliest :=
                max !earliest (times.(e.e_src) + e.e_latency - (ii * e.e_distance)))
          edges;
        (* Try II consecutive start times; beyond that the resource
           pattern repeats. *)
        let placed = ref false in
        let candidate = ref (max 0 !earliest) in
        let tries = ref 0 in
        while (not !placed) && !tries < ii do
          if slot_load.(!candidate mod ii) < width then begin
            times.(i) <- !candidate;
            slot_load.(!candidate mod ii) <- slot_load.(!candidate mod ii) + 1;
            placed := true
          end
          else begin
            incr candidate;
            incr tries
          end
        done;
        if not !placed then failure := Some (Schedobs.Unplaced i)
      end)
    order;
  match !failure with
  | Some f -> Error f
  | None -> (
    (* Greedy placement without ejection can violate edges into
       already-scheduled ops; validate before accepting. *)
    match violated ~ii times edges with
    | Some e -> Error (Schedobs.Violated e)
    | None -> Ok times)

let schedule ?obs ?(label = "loop") ~width ops =
  let n = Array.length ops in
  if n = 0 then Error "empty loop body"
  else if width < 1 then Error "width < 1"
  else begin
    let g = Ddg.build ops in
    let edges = mod_edges g ops in
    let priority = Ddg.heights g in
    let bnds = bounds_of ~width ops edges in
    let res_mii = bnds.Schedobs.res_mii in
    let max_ii = (2 * n) + 4 in
    let stamp () = match obs with Some o -> Schedobs.now o | None -> 0.0 in
    let rec search attempts ii =
      if ii > max_ii then Error "no feasible initiation interval found"
      else begin
        let t0 = stamp () in
        match try_ii ~width ~edges ~priority n ii with
        | Ok times ->
          let horizon = Array.fold_left max 0 times in
          let stages = (horizon / ii) + 1 in
          (match obs with
           | None -> ()
           | Some o ->
             let attempts =
               List.rev
                 ({ Schedobs.a_ii = ii; a_outcome = Schedobs.Placed;
                    a_t0 = t0; a_t1 = stamp () }
                  :: attempts)
             in
             Schedobs.record_loop o ~label ~width ~ops
               ~edges ~bounds:bnds ~attempts ~ii
               ~stages ~times);
          Ok
            { ii; times; stages; res_mii;
              rec_mii = bnds.Schedobs.rec_mii; width }
        | Error f ->
          let attempts =
            match obs with
            | None -> attempts
            | Some _ ->
              { Schedobs.a_ii = ii; a_outcome = f; a_t0 = t0;
                a_t1 = stamp () }
              :: attempts
          in
          search attempts (ii + 1)
      end
    in
    search [] (max res_mii 1)
  end

let verify ~width ops t =
  let n = Array.length ops in
  if Array.length t.times <> n then Error "times size mismatch"
  else begin
    match violated ~ii:t.ii t.times (mod_edges (Ddg.build ops) ops) with
    | Some e ->
      Error
        (Printf.sprintf "dependence %d->%d (lat %d, dist %d) violated" e.e_src
           e.e_dst e.e_latency e.e_distance)
    | None ->
      let load = Array.make t.ii 0 in
      Array.iter
        (fun time -> load.(time mod t.ii) <- load.(time mod t.ii) + 1)
        t.times;
      if Array.exists (fun l -> l > width) load then
        Error "kernel row exceeds width"
      else Ok ()
  end

let speedup_bound ops t =
  let sequential = Listsched.length (Listsched.schedule ~width:t.width ops) in
  float_of_int sequential /. float_of_int t.ii
