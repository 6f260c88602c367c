(* Differential properties of the cell-train fast path (DESIGN.md §14):
   with flags off the fast path must be invisible — every metric the
   simulator exposes is byte-identical whether PDUs ride analytic trains
   or the per-cell reference path. Only the engine's own event-accounting
   counters may differ (fewer events is the point). *)

open Engine

(* sim_events_total{outcome=...} is the one family the fast path is
   allowed (expected) to change. *)
let strip_event_counters dump =
  String.split_on_char '\n' dump
  |> List.filter (fun line ->
         not (String.length line >= 16 && String.sub line 0 16 = "sim_events_total"))
  |> String.concat "\n"

(* Settled path records, one line each, in the store's canonical order. *)
let path_lines () =
  Pathrec.records ()
  |> List.map (fun (r : Pathrec.record) ->
         Printf.sprintf "%d>%d vci=%d seq=%d injected=%d delivered=%d%s"
           r.Pathrec.r_src r.r_dst r.r_vci r.r_seq r.r_injected r.r_delivered
           (String.concat ""
              (Array.to_list
                 (Array.map
                    (fun (h : Pathrec.hop) ->
                      Printf.sprintf " [s%d %d>%d q=%d %dns]" h.Pathrec.h_stage
                        h.h_in_port h.h_out_port h.h_queue h.h_latency_ns)
                    r.r_hops))))
  |> String.concat "\n"

type run = { dump : string; fired : int; paths : string; spans : string }

let set_observers on =
  if on then begin
    Atm.Flowstat.configure ();
    Pathrec.clear ();
    Pathrec.start ();
    Span.clear ();
    Span.start ()
  end
  else begin
    Atm.Flowstat.disable ();
    Pathrec.stop ();
    Span.stop ()
  end

(* Run [f] once per mode from a clean registry and return each mode's
   stripped Prometheus dump plus the events it fired; with [observers],
   flow accounting, path records and spans run too, and their output is
   captured. *)
let both_modes ?(observers = false) f =
  let run forced =
    Metrics.reset ();
    set_observers observers;
    Trainmode.force_per_cell forced;
    let fired0 = Sim.events_fired () in
    let finish () =
      Trainmode.force_per_cell false;
      if observers then set_observers false
    in
    (try f ()
     with e ->
       finish ();
       raise e);
    let fired = Sim.events_fired () - fired0 in
    finish ();
    Metrics.flush ();
    let r =
      {
        dump = strip_event_counters (Metrics.to_prometheus_string ());
        fired;
        paths = path_lines ();
        spans = Fingerprint.spans ();
      }
    in
    Pathrec.clear ();
    Span.clear ();
    r
  in
  let train = run false in
  let percell = run true in
  (train, percell)

let check_identical name f =
  let train, percell = both_modes f in
  Alcotest.(check string) (name ^ ": metrics train = per-cell") percell.dump
    train.dump

(* The train-granular observers must report what the per-cell oracle
   reports: flow counters (hop-0 drops from refused uplink attempts
   included), path records, and every span mark ([Dropped] included). *)
let check_observed name f =
  let train, percell = both_modes ~observers:true f in
  (* name the first differing line: the dumps run to hundreds of lines *)
  let check what percell train =
    let rec first = function
      | p :: ps, t :: ts -> if p = t then first (ps, ts) else Some (p, t)
      | [], [] -> None
      | p :: _, [] -> Some (p, "<end>")
      | [], t :: _ -> Some ("<end>", t)
    in
    match
      first (String.split_on_char '\n' percell, String.split_on_char '\n' train)
    with
    | None -> ()
    | Some (p, t) ->
        Alcotest.failf "%s: %s train <> per-cell\n per-cell: %s\n train:    %s"
          name what p t
  in
  check "metrics" percell.dump train.dump;
  check "path records" percell.paths train.paths;
  check "spans" percell.spans train.spans;
  Alcotest.(check bool)
    (name ^ ": observers saw traffic")
    true
    (train.paths <> "" && train.spans <> "")

(* --- flags-off equivalence on the paper's workload shapes ------------- *)

let fig4_style () =
  check_identical "fig4max raw bandwidth" (fun () ->
      ignore (Experiments.Common.raw_bandwidth ~count:30 ~size:5056 () : float))

let fig3_style () =
  check_identical "fig3 raw round-trip" (fun () ->
      ignore (Experiments.Common.raw_rtt ~iters:20 ~size:1024 () : float))

(* count:200 is the long flow-controlled stream where per-cell sends keep
   arriving while planned trains still hold the wire *)
let store_counts = [ 20; 200 ]

let store_style () =
  List.iter
    (fun count ->
      check_identical
        (Printf.sprintf "uam store bandwidth (%d)" count)
        (fun () ->
          ignore
            (Experiments.Common.uam_store_bandwidth ~count ~size:4096 ()
              : float)))
    store_counts

let fig4_observed () =
  check_observed "fig4max raw bandwidth" (fun () ->
      ignore (Experiments.Common.raw_bandwidth ~count:30 ~size:5056 () : float))

let store_observed () =
  List.iter
    (fun count ->
      check_observed
        (Printf.sprintf "uam store bandwidth (%d)" count)
        (fun () ->
          ignore
            (Experiments.Common.uam_store_bandwidth ~count ~size:4096 ()
              : float)))
    store_counts

(* The fast path must actually engage on the PDU-heavy shape, not be
   vacuously equivalent because nothing ever trained. *)
let fast_path_engages () =
  let train, percell =
    both_modes (fun () ->
        ignore (Experiments.Common.raw_bandwidth ~count:30 ~size:5056 () : float))
  in
  let train_fired = train.fired and percell_fired = percell.fired in
  Alcotest.(check bool)
    (Printf.sprintf "3x fewer events (train %d vs per-cell %d)" train_fired
       percell_fired)
    true
    (train_fired * 3 <= percell_fired)

(* --- property: equivalence holds across the size sweep ---------------- *)

let prop_sizes =
  QCheck.Test.make ~count:6 ~name:"train = per-cell across PDU sizes"
    QCheck.(map (fun n -> 40 + (n mod 5017)) small_nat)
    (fun size ->
      let train, percell =
        both_modes (fun () ->
            ignore
              (Experiments.Common.raw_bandwidth ~count:10 ~size () : float))
      in
      train.dump = percell.dump)

(* --- lazy expansion under a mid-topology fault ------------------------ *)

(* One lossy uplink forces that host onto the per-cell path; other hosts
   keep training. Build the fig4 flow twice across a 4-host cluster: the
   0 -> 1 flow is clean, the 2 -> 3 flow crosses the faulty uplink. *)
let faulty_pair_run () =
  let c = Cluster.create ~hosts:4 () in
  let spec = { Fault.none with loss = 0.02; sites = [] } in
  Atm.Link.set_fault
    (Atm.Network.uplink c.Cluster.net ~host:2)
    (Fault.create ~site:"test.up.2" spec);
  let send_flow src dst count =
    let n_src = Cluster.node c src and n_dst = Cluster.node c dst in
    let ep_s, a_s = Cluster.simple_endpoint ~free_buffers:4 n_src in
    let ep_d, _ =
      Cluster.simple_endpoint ~free_buffers:56 ~rx_slots:128 n_dst
    in
    let ch, _ = Unet.connect_pair (n_src.unet, ep_s) (n_dst.unet, ep_d) in
    let payload = Experiments.Common.payload_of_size a_s 5056 in
    ignore
      (Proc.spawn ~name:"sink" c.sim (fun () ->
           (* the lossy flow drops PDUs: drain whatever arrives *)
           while true do
             let d = Unet.recv n_dst.unet ep_d in
             Experiments.Common.return_buffers n_dst ep_d d
           done));
    ignore
      (Proc.spawn ~name:"source" c.sim (fun () ->
           let sent = ref 0 in
           while !sent < count do
             match Unet.send n_src.unet ep_s (Unet.Desc.tx ~chan:ch payload) with
             | Ok () -> incr sent
             | Error Unet.Queue_full -> Proc.sleep c.sim ~time:(Sim.us 5)
             | Error e -> Fmt.failwith "source: %a" Unet.pp_error e
           done))
  in
  send_flow 0 1 30;
  send_flow 2 3 30;
  Sim.run ~until:(Sim.ms 50) c.sim

let fault_expansion () =
  let train, percell = both_modes faulty_pair_run in
  let train_fired = train.fired and percell_fired = percell.fired in
  (* expansion is exact: same deliveries, same drops, same everything *)
  Alcotest.(check string) "faulty run: metrics train = per-cell" percell.dump
    train.dump;
  (* the injector really fired on the faulty uplink... *)
  Metrics.reset ();
  Trainmode.force_per_cell false;
  faulty_pair_run ();
  let dropped =
    match
      Metrics.counter_value "fault_injected_total"
        [ ("kind", "drop"); ("site", "test.up.2") ]
    with
    | Some n -> n
    | None -> 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "fault injected drops (%d)" dropped)
    true (dropped > 0);
  (* ...while the clean 0 -> 1 flow kept training: expansion stayed local
     to the affected link. The lossy flow runs per-cell in both modes, so
     it contributes the same events to each side; the clean flow training
     must collapse the train total well below the per-cell total. *)
  Alcotest.(check bool)
    (Printf.sprintf "clean flow still trains (train %d vs per-cell %d)"
       train_fired percell_fired)
    true
    (train_fired * 3 <= percell_fired * 2)

(* --- truncation takes back what a commit synthesized -------------------- *)

(* One train driven straight through [Network.commit_train] on a 2-cell
   uplink FIFO fed twice as fast as the wire, so the uplink refuses
   attempts all along the plan, then cut mid-flight. The commit stamps the
   EOP's milestones and a [Dropped] mark at the last refused attempt; the
   cut must erase the EOP marks (the cell was not sent) and move [Dropped]
   back to the last refusal strictly before the cut — the later ones are
   re-performed, or not, by the per-cell path, exactly as the uplink's own
   drop counter keeps only refusals before the cut. *)
let truncation_unmarks_spans () =
  let config = { Atm.Network.default_config with host_tx_fifo = 2 } in
  let net_with_train () =
    let sim = Sim.create () in
    let net = Atm.Network.create sim ~hosts:2 config in
    Atm.Network.attach_rx net ~host:1 ignore;
    let conn = Atm.Network.connect net ~a:0 ~b:1 in
    let ctx = Span.root "truncated" in
    let cells =
      Atm.Aal5.segment ~ctx ~vci:conn.Atm.Network.side_a.tx_vci
        (Buf.of_string (String.make 1000 'x'))
    in
    (sim, net, Atm.Cell.Train.of_cells (Array.of_list cells), ctx)
  in
  Span.clear ();
  Span.start ();
  Fun.protect ~finally:(fun () ->
      Span.stop ();
      Span.clear ())
  @@ fun () ->
  (* the refusals the commit will plan, from the same plan on a twin *)
  let refusals, gap =
    let _, twin, train, _ = net_with_train () in
    let uplink = Atm.Network.uplink twin ~host:0 in
    let gap = Atm.Link.cell_time uplink / 2 in
    match
      Atm.Link.plan_chain uplink ~n:(Atm.Cell.Train.length train)
        ~first_attempt:gap ~gap
    with
    | Some pl -> (Atm.Link.plan_drops pl, gap)
    | None -> Alcotest.fail "twin uplink refused the plan"
  in
  let sim, net, train, ctx = net_with_train () in
  let uplink = Atm.Network.uplink net ~host:0 in
  let n = Atm.Cell.Train.length train in
  let accepts =
    match
      Atm.Network.commit_train net ~host:0 ~train ~first_attempt:gap ~gap
        ~on_interfere:ignore
    with
    | Some a -> a
    | None -> Alcotest.fail "train did not commit"
  in
  let mark m =
    match Span.find ctx.Span.span_id with
    | Some s -> Span.mark_time s m
    | None -> None
  in
  let nd = Array.length refusals in
  Alcotest.(check bool) (Printf.sprintf "uplink refuses (%d)" nd) true (nd > 4);
  Alcotest.(check (option int)) "Dropped at the last refusal"
    (Some refusals.(nd - 1)) (mark Span.Dropped);
  Alcotest.(check (option int)) "EOP injected at its acceptance"
    (Some accepts.(n - 1)) (mark Span.Injected);
  (* cut between two refusals, halfway through the plan *)
  let cut = refusals.(nd / 2) + 1 in
  Sim.run ~until:cut sim;
  let before arr =
    Array.fold_left (fun k x -> if x < cut then k + 1 else k) 0 arr
  in
  let keep = before accepts in
  Atm.Cell.Train.truncate train ~keep ~now:(Sim.now sim);
  let kept = before refusals in
  Alcotest.(check int) "uplink keeps the refusals before the cut" kept
    (Atm.Link.cells_dropped uplink);
  Alcotest.(check (option int)) "Dropped moves back to the last kept refusal"
    (Some refusals.(kept - 1)) (mark Span.Dropped);
  List.iter
    (fun m ->
      Alcotest.(check (option int))
        (Span.mark_name m ^ " erased")
        None (mark m))
    Span.[ Injected; Switch_in; Switch_out; Link_tx; Rx_cell ]

let () =
  Alcotest.run "train"
    [
      ( "differential",
        [
          Alcotest.test_case "fig4-style bandwidth" `Slow fig4_style;
          Alcotest.test_case "fig3-style rtt" `Slow fig3_style;
          Alcotest.test_case "uam store" `Slow store_style;
          Alcotest.test_case "fig4-style, observers on" `Slow fig4_observed;
          Alcotest.test_case "uam store, observers on" `Slow store_observed;
          Alcotest.test_case "fast path engages" `Slow fast_path_engages;
          QCheck_alcotest.to_alcotest prop_sizes;
        ] );
      ( "truncation",
        [ Alcotest.test_case "spans unmarked past the cut" `Quick
            truncation_unmarks_spans ] );
      ( "fault-expansion",
        [ Alcotest.test_case "lossy uplink expands locally" `Slow
            fault_expansion ] );
    ]
