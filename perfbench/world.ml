(* The four workloads, driven through the library's public API, and one
   repetition of each: set up, simulate, export, then verify.

   The stream loops re-implement the experiment helpers (raw U-Net
   bandwidth, UAM block store) so that inputs come from [Inputs] and the
   benchmark can time its own calls into each layer. Stream sources are
   closed-loop on U-Net back-pressure (retry on [Queue_full]); only the
   fabric's incast waves are scheduled open-loop in virtual time. *)

open Engine

let buffer_size = 4160

type opts = {
  per_cell : bool;  (** force the per-cell path (the oracle) *)
  traced : bool;  (** record benchmark spans *)
  observers : bool;  (** flow accounting and path records on *)
  fault : Fault.spec option;  (** applied to the fabric after set-up *)
}

let default_opts workload =
  {
    per_cell = false;
    traced = false;
    observers = workload = "fabric1024";
    fault = None;
  }

(* The host clock is stamped every [k] deliveries: one sample of host µs
   per PDU per batch. *)
type batches = {
  k : int;
  mutable n : int;
  mutable last : int;
  mutable out : float list;
}

(* Batches of a few milliseconds: long enough that one stall of the host
   does not make a batch an outlier, short enough for ~60 per
   repetition. *)
let batch_size = function
  | "bulk_raw" -> 32
  | "cellstorm" -> 512
  | _ -> 8

let note b =
  b.n <- b.n + 1;
  if b.n mod b.k = 0 then begin
    let t = Selfprof.now_ns () in
    b.out <- (float_of_int (t - b.last) /. 1e3 /. float_of_int b.k) :: b.out;
    b.last <- t
  end

type counts = {
  mutable send_calls : int;
  mutable queue_full : int;
  mutable ok : int;  (** PDUs delivered byte for byte *)
}

type rep = {
  offered : int;
  ok : int;
  setup_ns : int;
  sim_ns : int;
  export_ns : int;
  alloc_words : float;  (** minor + major - promoted, simulation only *)
  samples : float array;  (** host µs per PDU, one per batch, in order *)
  outcome : string;  (** simulated outputs, compared with the oracle *)
  ledger_ok : bool;  (** every cell accounted for *)
  events : int;
  cancelled : int;
  send_calls : int;
  queue_full : int;
  link_cells_sent : int;
  link_drops : int;
  switch_routed : int;
  switch_drops : int;
  queue_peak : float;
  rx_dropped : int;  (** U-Net receive drops at the sinks *)
  uam_requests : int;
  uam_retx : int;
  uam_dups : int;
  path_records : int;
  families : (string * int) list;
      (** counter-family deltas over the repetition, traced reps only *)
}

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ------------------------------------------------------------------ *)
(* Counter families, read from the registry's text dump *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* The [buf_copies_total] layers of the network interfaces, as opposed
   to the application's own staging copies into its segment. *)
let ni_copy_layer labels =
  contains labels "_tx_dma" || contains labels "sba100_"
  || contains labels "ni_tx"

let sample line =
  match String.rindex_opt line ' ' with
  | Some sp when line.[0] <> '#' ->
      let head = String.sub line 0 sp in
      let name, labels =
        match String.index_opt head '{' with
        | Some b -> (String.sub head 0 b, String.sub head b (sp - b))
        | None -> (head, "")
      in
      let value = String.sub line (sp + 1) (String.length line - sp - 1) in
      Option.map (fun v -> (name, labels, v)) (float_of_string_opt value)
  | _ -> None

(* Every family summed over its labels, plus [ni_copies]. *)
let families () =
  let tbl = Hashtbl.create 64 in
  let add name v =
    let prev = Option.value ~default:0. (Hashtbl.find_opt tbl name) in
    Hashtbl.replace tbl name (prev +. v)
  in
  List.iter
    (fun line ->
      match sample line with
      | Some (name, labels, v) ->
          add name v;
          if name = "buf_copies_total" && ni_copy_layer labels then
            add "ni_copies" v
      | None -> ())
    (String.split_on_char '\n' (Metrics.to_prometheus_string ()));
  tbl

(* ------------------------------------------------------------------ *)
(* Payload checks *)

let equal_sub a apos b bpos len =
  let rec words i =
    if i + 8 > len then bytes i
    else
      Bytes.get_int64_ne a (apos + i) = Bytes.get_int64_ne b (bpos + i)
      && words (i + 8)
  and bytes i =
    i >= len
    || Bytes.get a (apos + i) = Bytes.get b (bpos + i)
       && bytes (i + 1)
  in
  words 0

let rx_matches (inp : Inputs.t) i (ep : Unet.Endpoint.t) (d : Unet.Desc.rx) =
  let pos = inp.offsets.(i) in
  let check (good, p) bytes off len =
    (good && equal_sub bytes off inp.pool p len, p + len)
  in
  Unet.Desc.payload_length d.rx_payload = inp.sizes.(i)
  &&
  match d.rx_payload with
  | Unet.Desc.Inline b ->
      fst
        (Buf.fold_spans b ~init:(true, pos) ~f:(fun acc by ~pos ~len ->
             check acc by pos len))
  | Unet.Desc.Buffers bs ->
      let seg = Unet.Segment.unsafe_bytes ep.segment in
      fst
        (List.fold_left
           (fun acc (off, len) -> check acc seg off len)
           (true, pos) bs)

(* ------------------------------------------------------------------ *)
(* Raw U-Net streams *)

type host_ep = {
  node : Cluster.node;
  ep : Unet.Endpoint.t;
  alloc : Unet.Segment.Allocator.t;
}

let sender node =
  let ep, alloc = Cluster.simple_endpoint ~free_buffers:4 ~buffer_size node in
  { node; ep; alloc }

let receiver node =
  let ep, alloc =
    Cluster.simple_endpoint ~free_buffers:56 ~rx_slots:128 ~buffer_size node
  in
  { node; ep; alloc }

type flow = {
  pdus : int array;  (** PDU indices in send order *)
  mutable next : int;
  mutable last_ns : int;  (** virtual time of the latest delivery *)
}

let connect a b =
  Spans.call "unet.connect" (fun () ->
      Unet.connect_pair (a.node.Cluster.unet, a.ep) (b.node.Cluster.unet, b.ep))

(* Send [pdus] in order on [chan]. Buffers go back to the allocator once
   the NI has set the descriptor's [injected] flag. [due k], if given, is
   the virtual instant the [k]-th PDU is scheduled for (open loop). *)
let source sim (inp : Inputs.t) (c : counts) src ~chan ~pdus ~due () =
  let free = Unet.Segment.Allocator.free src.alloc in
  let inflight = Queue.create () in
  let reclaim () =
    while
      (not (Queue.is_empty inflight))
      && (fst (Queue.peek inflight)).Unet.Desc.injected
    do
      List.iter free (snd (Queue.pop inflight))
    done
  in
  let rec take n acc =
    if n = 0 then Some acc
    else
      match Unet.Segment.Allocator.alloc src.alloc with
      | Some b -> take (n - 1) (b :: acc)
      | None ->
          List.iter free acc;
          None
  in
  let rec blocks n =
    reclaim ();
    match take n [] with
    | Some bs -> bs
    | None ->
        Proc.sleep sim ~time:(Sim.us 5);
        blocks n
  in
  let payload i =
    let size = inp.sizes.(i) and pos = inp.offsets.(i) in
    if size <= Unet.Desc.inline_max then
      (Unet.Desc.Inline (Buf.of_bytes_sub inp.pool ~pos ~len:size), [])
    else begin
      let bs = blocks ((size + buffer_size - 1) / buffer_size) in
      let _, segs =
        List.fold_left
          (fun (put, acc) (off, len) ->
            let len = min len (size - put) in
            Unet.Segment.write src.ep.segment ~off ~src:inp.pool
              ~src_pos:(pos + put) ~len;
            (put + len, (off, len) :: acc))
          (0, []) bs
      in
      (Unet.Desc.Buffers (List.rev segs), bs)
    end
  in
  Array.iteri
    (fun k i ->
      (match due k with
      | Some t when t > Sim.now sim -> Proc.sleep sim ~time:(t - Sim.now sim)
      | _ -> ());
      let data, held = payload i in
      let desc = Unet.Desc.tx ~chan data in
      let rec send () =
        c.send_calls <- c.send_calls + 1;
        match
          Spans.call ~pdu:i "unet.send" (fun () ->
              Unet.send src.node.unet src.ep desc)
        with
        | Ok () -> if held <> [] then Queue.push (desc, held) inflight
        | Error Unet.Queue_full ->
            c.queue_full <- c.queue_full + 1;
            Proc.sleep sim ~time:(Sim.us 5);
            send ()
        | Error e -> Fmt.failwith "source: %a" Unet.pp_error e
      in
      send ())
    pdus

(* Receive [total] PDUs on [dst], checking each against the seeded bytes
   of the PDU its flow sent next, and hand the buffers back. *)
let sink sim (inp : Inputs.t) (c : counts) batches dst ~flows ~total () =
  let give_back i (off, _) =
    match
      Spans.call ~pdu:i "unet.provide_free_buffer" (fun () ->
          Unet.provide_free_buffer dst.node.unet dst.ep ~off ~len:buffer_size)
    with
    | Ok () -> ()
    | Error e -> Fmt.failwith "sink: %a" Unet.pp_error e
  in
  for _ = 1 to total do
    let d = Unet.recv dst.node.unet dst.ep in
    let fl = Hashtbl.find flows d.Unet.Desc.src_chan in
    let i = fl.pdus.(fl.next) in
    fl.next <- fl.next + 1;
    fl.last_ns <- Sim.now sim;
    if rx_matches inp i dst.ep d then c.ok <- c.ok + 1;
    (match d.rx_payload with
    | Unet.Desc.Inline _ -> ()
    | Unet.Desc.Buffers bs -> List.iter (give_back i) bs);
    note batches
  done

(* ------------------------------------------------------------------ *)
(* Fabric accounting *)

type ledger = {
  up_sent : int;  (** cells that left the hosts' NIs *)
  down_sent : int;  (** cells delivered to hosts' NIs *)
  all_sent : int;
  link_dropped : int;
      (** on switch output links; an uplink refusal is back-pressure the
          NI retries, not a loss *)
  sw_routed : int;
  sw_dropped : int;
  peak : float;
}

let ports s = List.init (Atm.Switch.ports s) Fun.id

let ledger net =
  Metrics.flush ();
  let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
  let ups =
    List.init (Atm.Network.host_count net) (fun host ->
        Atm.Network.uplink net ~host)
  in
  let switches =
    List.init (Atm.Network.switch_count net) (Atm.Network.switch_at net)
  in
  (* every switch output link with where it leads: downlinks and trunks *)
  let outs =
    List.concat
      (List.mapi
         (fun sw s ->
           List.filter_map
             (fun port ->
               Option.map
                 (fun l -> (l, Atm.Network.port_dest net ~sw ~port))
                 (Atm.Network.output_link net ~sw ~port))
             (ports s))
         switches)
  in
  let out_sent = sum (fun (l, _) -> Atm.Link.cells_sent l) outs in
  {
    up_sent = sum Atm.Link.cells_sent ups;
    down_sent =
      sum
        (fun (l, d) ->
          match d with Some (`Host _) -> Atm.Link.cells_sent l | _ -> 0)
        outs;
    all_sent = sum Atm.Link.cells_sent ups + out_sent;
    link_dropped = sum (fun (l, _) -> Atm.Link.cells_dropped l) outs;
    sw_routed = sum Atm.Switch.cells_routed switches;
    sw_dropped =
      sum
        (fun s -> Atm.Switch.cells_dropped s + Atm.Switch.unroutable s)
        switches;
    peak =
      List.fold_left
        (fun acc s ->
          List.fold_left
            (fun acc port -> Float.max acc (Atm.Switch.queue_peak s ~port))
            acc (ports s))
        0. switches;
  }

(* Cells conserve: every cell a host NI put on its uplink was delivered to
   a host NI or dropped by a counted link or switch reason. *)
let balanced l = l.up_sent = l.down_sent + l.link_dropped + l.sw_dropped

let latency_quantiles () =
  let s = Span.latency () in
  if Metrics.Sketch.count s = 0 then "-"
  else
    Printf.sprintf "%.0f/%.0f/%.0f"
      (Metrics.Sketch.quantile s 0.5)
      (Metrics.Sketch.quantile s 0.99)
      (Metrics.Sketch.quantile s 0.999)

(* ------------------------------------------------------------------ *)
(* Workload set-up. Each spawns its processes and returns the simulation
   plus closures for the export step and the virtual-time outputs. *)

type running = {
  sim : Sim.t;
  net : Atm.Network.t;
  report : unit -> unit;  (** export/report step after the simulation *)
  outputs : unit -> string;  (** simulated outputs other than the ledger *)
  expected_cells : int option;  (** cells the inputs imply on the uplinks *)
  uams : Uam.t list;
  rx_eps : Unet.Endpoint.t list;  (** receiving endpoints, for drop counts *)
}

let topology (inp : Inputs.t) =
  if inp.workload = "fabric1024" then
    Atm.Network.Clos
      {
        pods = Inputs.pods;
        spine = Inputs.spine;
        hosts_per_pod = Inputs.hosts_per_pod;
      }
  else Atm.Network.Single 2

let create_cluster (inp : Inputs.t) o =
  let c =
    Spans.call "cluster.create" (fun () ->
        Cluster.create ~topology:(topology inp) ())
  in
  Option.iter (Atm.Network.apply_fault c.net) o.fault;
  c

let flow_outputs flows =
  String.concat ";"
    (List.map (fun fl -> Printf.sprintf "%d@%d" fl.next fl.last_ns) flows)

let virt_mb_s bytes last_ns =
  if last_ns <= 0 then 0. else float_of_int bytes /. 1e6 /. Sim.to_sec last_ns

let setup_raw (inp : Inputs.t) o (c : counts) batches =
  let cl = create_cluster inp o in
  let tx = sender (Cluster.node cl 0) and rx = receiver (Cluster.node cl 1) in
  let chan, rx_chan = connect tx rx in
  let n = Array.length inp.sizes in
  let fl = { pdus = Array.init n Fun.id; next = 0; last_ns = 0 } in
  let flows = Hashtbl.create 1 in
  Hashtbl.replace flows rx_chan fl;
  ignore
    (Proc.spawn ~name:"sink" cl.sim
       (sink cl.sim inp c batches rx ~flows ~total:n));
  ignore
    (Proc.spawn ~name:"source" cl.sim
       (source cl.sim inp c tx ~chan ~pdus:fl.pdus ~due:(fun _ -> None)));
  let bytes = Array.fold_left ( + ) 0 inp.sizes in
  {
    sim = cl.sim;
    net = cl.net;
    report = ignore;
    outputs =
      (fun () ->
        Printf.sprintf "flows=%s mb_s=%.6f lat=%s" (flow_outputs [ fl ])
          (virt_mb_s bytes fl.last_ns) (latency_quantiles ()));
    expected_cells = Some (Inputs.cells inp);
    uams = [];
    rx_eps = [ rx.ep ];
  }

(* Blocks go to distinct offsets of one remote region, so every block can
   be checked once all are acknowledged. *)
let setup_store (inp : Inputs.t) o (c : counts) batches =
  let cl = create_cluster inp o in
  let a0 = Uam.create (Cluster.node cl 0).unet ~rank:0 ~nodes:2 in
  let a1 = Uam.create (Cluster.node cl 1).unet ~rank:1 ~nodes:2 in
  Spans.call "unet.connect" (fun () -> Uam.connect a0 a1);
  let x0 = Uam.Xfer.attach a0 and x1 = Uam.Xfer.attach a1 in
  let n = Array.length inp.sizes in
  let offs = Array.make n 0 in
  for i = 1 to n - 1 do
    offs.(i) <- offs.(i - 1) + inp.sizes.(i - 1)
  done;
  let total = offs.(n - 1) + inp.sizes.(n - 1) in
  let region = Bytes.make total '\000' in
  Uam.Xfer.register_region x1 ~id:1 region;
  let t_done = ref 0 in
  ignore
    (Proc.spawn ~name:"server" cl.sim (fun () ->
         Uam.poll_until a1 (fun () -> false)));
  ignore
    (Proc.spawn ~name:"client" cl.sim (fun () ->
         for i = 0 to n - 1 do
           let block = Inputs.payload inp i in
           Spans.call ~pdu:i "uam.xfer_store" (fun () ->
               Uam.Xfer.store x0 ~dst:1 ~region:1 ~offset:offs.(i) block);
           note batches
         done;
         Uam.Xfer.quiet x0;
         t_done := Sim.now cl.sim;
         for i = 0 to n - 1 do
           if
             equal_sub region offs.(i) inp.pool inp.offsets.(i) inp.sizes.(i)
           then c.ok <- c.ok + 1
         done));
  {
    sim = cl.sim;
    net = cl.net;
    report = ignore;
    outputs =
      (fun () ->
        Printf.sprintf "done=%d mb_s=%.6f lat=%s req=%d retx=%d dup=%d"
          !t_done (virt_mb_s total !t_done) (latency_quantiles ())
          (Uam.requests_sent a0) (Uam.retransmissions a0)
          (Uam.duplicates_dropped a1));
    expected_cells = None;
    uams = [ a0; a1 ];
    rx_eps = [];
  }

let setup_fabric (inp : Inputs.t) o (c : counts) batches =
  let fab = Option.get inp.fabric in
  let cl = create_cluster inp o in
  let slot = Atm.Link.cell_time (Atm.Network.uplink cl.net ~host:0) in
  let n = Array.length inp.sizes in
  let n_stream = Inputs.stream_pdus inp in
  let n_streams = Array.length fab.streams in
  let n_incast = Array.length fab.incast_senders in
  (* one receiving endpoint per destination host, shared by its flows *)
  let sinks = Hashtbl.create 64 in
  let sink_of host =
    match Hashtbl.find_opt sinks host with
    | Some s -> s
    | None ->
        let s = (receiver (Cluster.node cl host), Hashtbl.create 4, ref 0) in
        Hashtbl.replace sinks host s;
        s
  in
  let add_flow src dst pdus due =
    let tx = sender (Cluster.node cl src) in
    let rx, rx_flows, total = sink_of dst in
    let chan, rx_chan = connect tx rx in
    let fl = { pdus; next = 0; last_ns = 0 } in
    Hashtbl.replace rx_flows rx_chan fl;
    total := !total + Array.length pdus;
    (tx, chan, fl, due)
  in
  (* PDUs [first], [first + step], ... below [limit] *)
  let every ~step ~first ~limit =
    Array.init ((limit - first + step - 1) / step) (fun k -> first + (k * step))
  in
  let streams =
    Array.mapi
      (fun s (a, b) ->
        add_flow a b
          (every ~step:n_streams ~first:s ~limit:n_stream)
          (fun _ -> None))
      fab.streams
  in
  (* incast waves: each must drain through the one egress port before the
     next starts; senders join a wave staggered by half a message *)
  let _, _, max_bytes = Inputs.shape "fabric1024" in
  let max_cells = Inputs.cells_of_size max_bytes in
  let wave_period = n_incast * max_cells * slot * 13 / 10 in
  let stagger = max_cells * slot / 2 in
  let incast =
    Array.mapi
      (fun j h ->
        add_flow h fab.incast_dst
          (every ~step:n_incast ~first:(n_stream + j) ~limit:n)
          (fun k -> Some (1 + (k * wave_period) + (j * stagger))))
      fab.incast_senders
  in
  let flows = Array.append streams incast in
  Hashtbl.iter
    (fun _ (rx, rx_flows, total) ->
      ignore
        (Proc.spawn ~name:"sink" cl.sim
           (sink cl.sim inp c batches rx ~flows:rx_flows ~total:!total)))
    sinks;
  Array.iter
    (fun (tx, chan, fl, due) ->
      ignore
        (Proc.spawn ~name:"source" cl.sim
           (source cl.sim inp c tx ~chan ~pdus:fl.pdus ~due)))
    flows;
  {
    sim = cl.sim;
    net = cl.net;
    report =
      (fun () ->
        ignore
          (Spans.call "atlas.section" (fun () ->
               Atm.Atlas.section ~title:"Congestion atlas: fabric1024" cl.net)
            : string));
    outputs =
      (fun () ->
        Printf.sprintf "flows=%s lat=%s paths=%d"
          (flow_outputs
             (Array.to_list (Array.map (fun (_, _, fl, _) -> fl) flows)))
          (latency_quantiles ()) (Pathrec.count ()));
    expected_cells = Some (Inputs.cells inp);
    uams = [];
    rx_eps = Hashtbl.fold (fun _ (rx, _, _) acc -> rx.ep :: acc) sinks [];
  }

let setup (inp : Inputs.t) =
  match inp.workload with
  | "bulk_raw" | "cellstorm" -> setup_raw inp
  | "store_uam" -> setup_store inp
  | "fabric1024" -> setup_fabric inp
  | w -> invalid_arg ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)

(* Flow accounting applies to fabrics created after [configure]; path
   records are process-global, so each repetition starts from none. *)
let configure_observers on =
  if on then begin
    Atm.Flowstat.configure ();
    Pathrec.start ()
  end
  else begin
    Atm.Flowstat.disable ();
    Pathrec.stop ()
  end;
  Pathrec.clear ()

let run (inp : Inputs.t) o =
  Trainmode.force_per_cell o.per_cell;
  configure_observers o.observers;
  Metrics.Sketch.clear (Span.latency ());
  if o.traced then Spans.start () else Spans.stop ();
  let fam0 = if o.traced then Some (families ()) else None in
  let c = { send_calls = 0; queue_full = 0; ok = 0 } in
  let b = { k = batch_size inp.workload; n = 0; last = 0; out = [] } in
  let t0 = Selfprof.now_ns () in
  let r = setup inp o c b in
  let t1 = Selfprof.now_ns () in
  let fired0 = Sim.events_fired () and cancelled0 = Sim.events_cancelled () in
  let a0 = alloc_words () in
  b.last <- Selfprof.now_ns ();
  Spans.call "sim.run" (fun () -> Sim.run ~until:(Sim.sec 600) r.sim);
  let a1 = alloc_words () in
  let t2 = Selfprof.now_ns () in
  let fired = Sim.events_fired () - fired0 in
  let cancelled = Sim.events_cancelled () - cancelled0 in
  r.report ();
  ignore (Spans.call "metrics.dump" Metrics.to_prometheus_string : string);
  let t3 = Selfprof.now_ns () in
  Spans.stop ();
  Trainmode.force_per_cell false;
  let l = ledger r.net in
  let families =
    match fam0 with
    | None -> []
    | Some f0 ->
        Hashtbl.fold
          (fun name v acc ->
            let v0 = Option.value ~default:0. (Hashtbl.find_opt f0 name) in
            (name, int_of_float (v -. v0)) :: acc)
          (families ()) []
  in
  let ledger_ok =
    balanced l
    && match r.expected_cells with Some n -> l.up_sent = n | None -> true
  in
  let rx_dropped =
    List.fold_left
      (fun a (ep : Unet.Endpoint.t) ->
        a + ep.drops_rx_full + ep.drops_no_free_buffer)
      0 r.rx_eps
  in
  let uams f = List.fold_left (fun a u -> a + f u) 0 r.uams in
  {
    offered = Array.length inp.sizes;
    ok = c.ok;
    setup_ns = t1 - t0;
    sim_ns = t2 - t1;
    export_ns = t3 - t2;
    alloc_words = a1 -. a0;
    samples = Array.of_list (List.rev b.out);
    outcome =
      Printf.sprintf "%s cells=%d/%d/%d drops=%d/%d/%d" (r.outputs ())
        l.up_sent l.down_sent l.all_sent l.link_dropped l.sw_dropped
        rx_dropped;
    ledger_ok;
    events = fired;
    cancelled;
    send_calls = c.send_calls;
    queue_full = c.queue_full;
    link_cells_sent = l.all_sent;
    link_drops = l.link_dropped;
    switch_routed = l.sw_routed;
    switch_drops = l.sw_dropped;
    queue_peak = l.peak;
    rx_dropped;
    uam_requests = uams Uam.requests_sent;
    uam_retx = uams Uam.retransmissions;
    uam_dups = uams Uam.duplicates_dropped;
    path_records = Pathrec.count ();
    families;
  }
