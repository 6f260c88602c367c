(* The benchmark's own tests: its names, its seeded inputs, its
   verification and its span clock. Repetitions here are a few dozen
   PDUs, so the suite stays fast; the fabric workload is only generated,
   never simulated. *)

open Perfbench

let names l = List.map (fun (m : Spec.metric) -> m.name) l

(* The ["name"] values of one top-level list of BENCHMARK.json. *)
let declared section =
  let open Engine.Json in
  let field k j = Option.get (member k j) in
  List.map
    (fun m -> Option.get (to_str (field "name" m)))
    (Option.get (to_list (field section (of_file "../BENCHMARK.json"))))

let check_unique what l =
  Alcotest.(check int) (what ^ " unique") (List.length l)
    (List.length (List.sort_uniq compare l))

let test_names () =
  let all = Spec.end_to_end @ Spec.per_layer in
  List.iter
    (fun (m : Spec.metric) ->
      Alcotest.(check bool) ("name " ^ m.name) true (Spec.valid_name m.name);
      Alcotest.(check bool) ("unit " ^ m.unit_) true (Spec.valid_unit m.unit_))
    all;
  List.iter
    (fun w -> Alcotest.(check bool) ("workload " ^ w) true (Spec.valid_name w))
    Inputs.workloads;
  check_unique "metrics" (names all);
  check_unique "workloads" Inputs.workloads;
  let same what expected got =
    Alcotest.(check (list string)) what expected got
  in
  same "end_to_end as declared" (declared "end_to_end") (names Spec.end_to_end);
  same "per_layer as declared" (declared "per_layer") (names Spec.per_layer);
  same "workloads as declared" (declared "workloads") Inputs.workloads

let small w ~seed = Inputs.make ~pdus:40 w ~seed ~rep:0

let test_same_seed () =
  List.iter
    (fun w ->
      let digest () = Inputs.digest (small w ~seed:7) in
      Alcotest.(check string) (w ^ " inputs") (digest ()) (digest ()))
    Inputs.workloads;
  List.iter
    (fun w ->
      let run () = World.run (small w ~seed:7) (World.default_opts w) in
      let a = run () and b = run () in
      Alcotest.(check string) (w ^ " simulated digest") a.outcome b.outcome;
      Alcotest.(check int) (w ^ " delivered byte for byte") a.offered a.ok;
      Alcotest.(check bool) (w ^ " cells balance") true a.ledger_ok)
    [ "bulk_raw"; "store_uam"; "cellstorm" ]

let test_other_seed () =
  List.iter
    (fun w ->
      let digest ~seed ~rep =
        Inputs.digest (Inputs.make ~pdus:40 w ~seed ~rep)
      in
      Alcotest.(check bool) (w ^ " inputs differ") true
        (digest ~seed:7 ~rep:0 <> digest ~seed:8 ~rep:0);
      Alcotest.(check bool) (w ^ " repetitions differ") true
        (digest ~seed:7 ~rep:0 <> digest ~seed:7 ~rep:1))
    Inputs.workloads

(* The oracle: the fast path's simulated outputs equal the per-cell run's. *)
let test_oracle () =
  List.iter
    (fun w ->
      let inp = small w ~seed:3 and o = World.default_opts w in
      let fast = World.run inp o in
      let cell = World.run inp { o with World.per_cell = true } in
      Alcotest.(check string) (w ^ " fast = per-cell") cell.outcome
        fast.outcome)
    [ "bulk_raw"; "store_uam"; "cellstorm" ]

(* The verification can fail: corrupted cells fail AAL5's CRC, their PDUs
   never arrive, and the sink's byte check or the cell count says so. *)
let test_fault_flagged () =
  let spec =
    match Engine.Fault.parse "corrupt=0.05,at=link,seed=5" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let inp = small "bulk_raw" ~seed:3 in
  let o = { (World.default_opts "bulk_raw") with fault = Some spec } in
  let r = World.run inp o in
  Alcotest.(check bool) "flagged" true (r.ok < r.offered || not r.ledger_ok)

(* A span stops its clock while its process is suspended: host time spent
   by other events in between is not charged to it. *)
let test_span_pauses () =
  let open Engine in
  let sim = Sim.create () in
  let busy_ns = 20_000_000 in
  Spans.reset ~id_base:0;
  Spans.start ();
  ignore
    (Proc.spawn sim (fun () ->
         Spans.call "waiter" (fun () -> Proc.sleep sim ~time:(Sim.us 10))));
  Sim.schedule_drop sim ~delay:(Sim.us 5) (fun () ->
      let t0 = Selfprof.now_ns () in
      while Selfprof.now_ns () - t0 < busy_ns do
        ()
      done);
  Spans.call "sim.run" (fun () -> Sim.run sim);
  Spans.stop ();
  Alcotest.(check int) "one waiter span" 1 (Spans.calls "waiter");
  Alcotest.(check bool) "waiter excludes the foreign event" true
    (Spans.active_ns "waiter" < busy_ns / 4);
  Alcotest.(check bool) "sim.run self includes it" true
    (Spans.self_ns "sim.run" >= busy_ns)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        List.map
          (fun (name, f) -> Alcotest.test_case name `Quick f)
          [
            ("metric and workload names", test_names);
            ("same seed, same inputs and digest", test_same_seed);
            ("other seed or repetition, other inputs", test_other_seed);
            ("fast path matches per-cell oracle", test_oracle);
            ("corrupting fault is flagged", test_fault_flagged);
            ("span clock pauses while suspended", test_span_pauses);
          ] );
    ]
