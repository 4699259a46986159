type t = {
  rows : int list array;
  row_of : int array;
  width : int;
  graph : Ddg.t;
  heights : int array;
}

let schedule_graph g ~cls ~caps =
  let n = Array.length cls in
  Array.iter
    (fun c ->
      if caps.(c) < 1 then invalid_arg "Listsched.schedule_graph: a class has no slot")
    cls;
  let heights = Ddg.heights g in
  (* Priority: longest path to a sink first, then lowest index. *)
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b -> match compare heights.(b) heights.(a) with 0 -> compare a b | c -> c)
    order;
  let row_of = Array.make n (-1) in
  let waiting = Array.init n (fun i -> List.length (Ddg.preds g i)) in
  (* earliest.(i) = lowest legal row given already-scheduled preds *)
  let earliest = Array.make n 0 in
  let free = Array.make (Array.length caps) 0 in
  let scheduled = ref 0 in
  let rows = ref [] in
  let cycle = ref 0 in
  while !scheduled < n do
    (* Ready: all preds issued, earliest row reached.  Each class takes
       its ready nodes in priority order while it has a free slot. *)
    Array.blit caps 0 free 0 (Array.length caps);
    let chosen = ref [] in
    for k = 0 to n - 1 do
      let i = order.(k) in
      let c = cls.(i) in
      if row_of.(i) < 0 && waiting.(i) = 0 && earliest.(i) <= !cycle && free.(c) > 0
      then begin
        free.(c) <- free.(c) - 1;
        chosen := i :: !chosen
      end
    done;
    let chosen = List.rev !chosen in
    List.iter
      (fun i ->
        row_of.(i) <- !cycle;
        incr scheduled;
        List.iter
          (fun (e : Ddg.edge) ->
            waiting.(e.dst) <- waiting.(e.dst) - 1;
            earliest.(e.dst) <- max earliest.(e.dst) (!cycle + e.latency))
          (Ddg.succs g i))
      chosen;
    rows := chosen :: !rows;
    incr cycle
  done;
  { rows = Array.of_list (List.rev !rows);
    row_of;
    width = Array.fold_left ( + ) 0 caps;
    graph = g;
    heights }

let schedule ?(latency = 1) ~width ops =
  if width < 1 then invalid_arg "Listsched.schedule: width < 1";
  schedule_graph (Ddg.build ~latency ops)
    ~cls:(Array.make (Array.length ops) 0)
    ~caps:[| width |]

let length t = Array.length t.rows

let verify ?(latency = 1) ops t =
  let n = Array.length ops in
  if Array.length t.row_of <> n then Error "row_of size mismatch"
  else begin
    let errors = ref [] in
    Array.iteri
      (fun r row ->
        if List.length row > t.width then
          errors := Printf.sprintf "row %d exceeds width" r :: !errors;
        List.iter
          (fun i ->
            if t.row_of.(i) <> r then
              errors := Printf.sprintf "op %d row mismatch" i :: !errors)
          row)
      t.rows;
    Array.iteri
      (fun i r ->
        if r < 0 || r >= Array.length t.rows then
          errors := Printf.sprintf "op %d unscheduled" i :: !errors)
      t.row_of;
    let g = Ddg.build ~latency ops in
    List.iter
      (fun (e : Ddg.edge) ->
        if t.row_of.(e.dst) < t.row_of.(e.src) + e.latency then
          errors :=
            Printf.sprintf "edge %d->%d violated (latency %d)" e.src e.dst
              e.latency
            :: !errors)
      (Ddg.edges g);
    match !errors with [] -> Ok () | e :: _ -> Error e
  end
