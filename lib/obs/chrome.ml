let sset_track_base = 1000

let members_string members =
  "{" ^ String.concat "," (List.map string_of_int members) ^ "}"

let to_string ?(fu_name = Printf.sprintf "FU%d") ?(pc_label = fun _ -> None)
    sink =
  let open Ximd_json in
  let n = Sink.n_fus sink in
  (* events newest first *)
  let events = ref [] in
  let emit e = events := e :: !events in
  let instant ~tid ~ts name = emit (Trace.instant ~tid ~ts name) in
  emit (Trace.process_name "ximd");
  for fu = 0 to n - 1 do
    emit (Trace.thread_name ~tid:fu (fu_name fu))
  done;
  (* SSET stream tracks actually used, keyed by smallest member. *)
  let timeline = Sink.timeline sink in
  let leaders =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun (i : Timeline.interval) ->
           match i.members with [] -> None | fu :: _ -> Some fu)
         timeline)
  in
  List.iter
    (fun leader ->
      emit
        (Trace.thread_name ~tid:(sset_track_base + leader)
           (Printf.sprintf "SSET led by FU%d" leader)))
    leaders;
  let slice_name pc =
    match pc_label pc with
    | Some l -> Printf.sprintf "%s (0x%02x)" l pc
    | None -> Printf.sprintf "0x%02x" pc
  in
  (* Fetch runs: merge consecutive same-pc fetches per FU into slices.
     Events arrive in chronological order, cycle by cycle. *)
  let run_pc = Array.make n (-1)
  and run_start = Array.make n 0
  and run_len = Array.make n 0 in
  let flush fu =
    if run_pc.(fu) >= 0 then begin
      emit
        (Trace.slice ~tid:fu ~ts:run_start.(fu) ~dur:run_len.(fu)
           (slice_name run_pc.(fu)) []);
      run_pc.(fu) <- -1
    end
  in
  List.iter
    (fun (ev : Event.t) ->
      match ev with
      | Event.Fetch { cycle; fu; pc } ->
        if run_pc.(fu) = pc && run_start.(fu) + run_len.(fu) = cycle then
          run_len.(fu) <- run_len.(fu) + 1
        else begin
          flush fu;
          run_pc.(fu) <- pc;
          run_start.(fu) <- cycle;
          run_len.(fu) <- 1
        end
      | Event.Cc_broadcast { cycle; fu; value } ->
        instant ~tid:fu ~ts:cycle
          (Printf.sprintf "cc%d=%c" fu (if value then 'T' else 'F'))
      | Event.Ss_transition { cycle; fu; to_done } ->
        instant ~tid:fu ~ts:cycle
          (Printf.sprintf "ss%d->%s" fu (if to_done then "DONE" else "BUSY"))
      | Event.Barrier_enter { cycle; fu; pc } ->
        instant ~tid:fu ~ts:cycle
          (Printf.sprintf "barrier enter @%02x" pc)
      | Event.Barrier_exit { cycle; fu; pc; waited } ->
        instant ~tid:fu ~ts:cycle
          (Printf.sprintf "barrier exit @%02x (waited %d)" pc waited)
      | Event.Halt { cycle; fu } ->
        flush fu;
        instant ~tid:fu ~ts:cycle "halt"
      | Event.Partition_change { cycle; ssets } ->
        emit
          (Trace.counter ~ts:cycle "live_streams"
             [ ("streams", Int (List.length ssets)) ])
      | Event.Fault_fired { cycle; kind; target } ->
        instant ~tid:0 ~ts:cycle
          (Printf.sprintf "fault %s:%d" kind target)
      | Event.Watchdog_window { cycle; quiet } ->
        instant ~tid:0 ~ts:cycle
          (Printf.sprintf "watchdog window (%d quiet cycles)" quiet)
      | Event.Commit _ -> ())
    (Sink.events sink);
  for fu = 0 to n - 1 do
    flush fu
  done;
  (* SSET timeline intervals on their leader tracks. *)
  List.iter
    (fun (i : Timeline.interval) ->
      match i.members with
      | [] -> ()
      | leader :: _ ->
        emit
          (Trace.slice
             ~tid:(sset_track_base + leader)
             ~ts:i.start_cycle ~dur:(Timeline.duration i)
             (members_string i.members) []))
    timeline;
  Trace.document (List.rev !events)
    ~other_data:
      [ ("dropped_events", Int (Sink.dropped_events sink));
        ("final_cycle", Int (Sink.final_cycle sink)) ]
