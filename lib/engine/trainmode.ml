(* Global gate for the cell-train fast path (DESIGN.md §14, §15).

   Trains coalesce per-cell events into per-PDU analytic schedules, which is
   only legal when nothing observes the simulation *between* cells. Trace,
   Span and Timeseries never need that — they synthesize their output from
   committed plan records — so only three observers pin the slow path: pcap
   capture (a full capture needs every cell on the wire) unless PDU
   sampling is on, when only the sampled PDUs, which run per-cell anyway,
   feed it; and the profiler and the flight recorder, which measure
   event-grain behavior itself. Fault injectors and legacy loss are
   per-site and are checked at each link/NI, not here, so a --fault at one
   attachment point expands only the affected hop. *)

let forced = ref false
let force_per_cell v = forced := v
let pcap_pins () = Pcapng.enabled () && not (Sample.active ())

let any_pins () =
  pcap_pins () || Selfprof.enabled () || Recorder.armed ()

let pinned () =
  List.filter_map
    (fun (name, pins) -> if pins then Some name else None)
    [
      ("pcap", pcap_pins ());
      ("selfprof", Selfprof.enabled ());
      ("recorder", Recorder.armed ());
    ]

(* Pinning is easy to cause by accident (attach one eager observer,
   silently lose the 14x fast path), so name the culprits once — a
   [trainmode_pinned{observer}] gauge plus one stderr line. Never for the
   --per-cell flag: that pin is explicit, and the differential tests
   compare dumps across the flag byte-for-byte. *)
let warned = ref false
let pin_gauges : (string, Metrics.Gauge.t) Hashtbl.t = Hashtbl.create 7

let note_pinned names =
  List.iter
    (fun name ->
      let g =
        match Hashtbl.find_opt pin_gauges name with
        | Some g -> g
        | None ->
            let g =
              Metrics.gauge
                ~help:"1 when this observer pins the per-cell slow path"
                "trainmode_pinned"
                [ ("observer", name) ]
            in
            Hashtbl.replace pin_gauges name g;
            g
      in
      Metrics.Gauge.set g 1.)
    names;
  if not !warned then begin
    warned := true;
    Logs.warn (fun m ->
        m "cell-train fast path disabled by per-cell observer%s: %s"
          (if List.length names > 1 then "s" else "")
          (String.concat ", " names))
  end

(* called per multi-cell tx descriptor and per received train: the
   unpinned answer is a handful of boolean reads and allocates nothing *)
let active () =
  if !forced then false
  else if any_pins () then begin
    note_pinned (pinned ());
    false
  end
  else true
