(* Host-time spans recorded by the benchmark around its own calls into
   each layer's public functions. Off by default; a disabled [call] is one
   boolean test.

   Simulated processes are coroutines: a library call such as [Unet.send]
   charges CPU time by suspending the calling process, and the event loop
   runs other work before resuming it. A span's duration must not absorb
   that foreign work, so [call] runs its body under an effect handler that
   forwards every effect outward unchanged and pauses the span's clock
   while the process is suspended. A span's active time is therefore the
   host time its own call spent on the CPU, and its self time is that
   minus its children's active time. Spans opened by a process parent to
   the span that was open when the process last ran on top of the loop —
   [sim.run] — so [sim.run]'s self time is everything the benchmark does
   not wrap. *)

type span = {
  name : string;
  pdu : int;  (** the PDU the call served, or -1 *)
  id : int;
  parent : span option;
  start_ns : int;
  mutable end_ns : int;
  mutable active_ns : int;
  mutable seg_ns : int;  (** start of the current on-CPU segment *)
  mutable child_ns : int;  (** children's active time *)
}

type total = {
  mutable calls : int;
  mutable self_ns : int;
  mutable active : int;
}

let on = ref false
let stack : span list ref = ref []
let next_id = ref 0
let totals : (string, total) Hashtbl.t = Hashtbl.create 16

(* Finished spans kept for the export written at exit, newest first; past
   [keep_max] only the totals are updated. *)
let keep_max = 50_000
let kept : span list ref = ref []
let n_kept = ref 0
let n_dropped = ref 0
let now = Engine.Selfprof.now_ns

let start () = on := true
let stop () = on := false

(* A repetition run in a child process starts from nothing recorded and
   numbers its spans from a base its parent chose, so ids stay unique
   across repetitions. *)
let reset ~id_base =
  Hashtbl.reset totals;
  kept := [];
  n_kept := 0;
  n_dropped := 0;
  next_id := id_base

let add_total name ~calls ~self_ns ~active =
  let tot =
    match Hashtbl.find_opt totals name with
    | Some tot -> tot
    | None ->
        let tot = { calls = 0; self_ns = 0; active = 0 } in
        Hashtbl.replace totals name tot;
        tot
  in
  tot.calls <- tot.calls + calls;
  tot.self_ns <- tot.self_ns + self_ns;
  tot.active <- tot.active + active

let keep s =
  if !n_kept < keep_max then begin
    kept := s :: !kept;
    incr n_kept
  end
  else incr n_dropped

let finish s =
  let t = now () in
  s.active_ns <- s.active_ns + (t - s.seg_ns);
  s.end_ns <- t;
  (match s.parent with
  | Some p -> p.child_ns <- p.child_ns + s.active_ns
  | None -> ());
  add_total s.name ~calls:1 ~self_ns:(s.active_ns - s.child_ns)
    ~active:s.active_ns;
  keep s

let call ?(pdu = -1) name f =
  if not !on then f ()
  else begin
    let saved = !stack in
    let t = now () in
    incr next_id;
    let s =
      {
        name;
        pdu;
        id = !next_id;
        parent = (match saved with p :: _ -> Some p | [] -> None);
        start_ns = t;
        end_ns = t;
        active_ns = 0;
        seg_ns = t;
        child_ns = 0;
      }
    in
    stack := s :: saved;
    let pause () =
      s.active_ns <- s.active_ns + (now () - s.seg_ns);
      stack := saved
    in
    let resume () =
      s.seg_ns <- now ();
      stack := s :: saved
    in
    Effect.Deep.match_with f ()
      {
        retc =
          (fun v ->
            stack := saved;
            finish s;
            v);
        exnc =
          (fun e ->
            stack := saved;
            finish s;
            raise e);
        effc =
          (fun eff ->
            Some
              (fun k ->
                pause ();
                let v = Effect.perform eff in
                resume ();
                Effect.Deep.continue k v));
      }
  end

let self_ns name =
  match Hashtbl.find_opt totals name with Some t -> t.self_ns | None -> 0

let active_ns name =
  match Hashtbl.find_opt totals name with Some t -> t.active | None -> 0

let calls name =
  match Hashtbl.find_opt totals name with Some t -> t.calls | None -> 0

(* One JSON object per line: name, pdu, id, parent, start, end, active. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"pdu\":%d,\"id\":%d,\"parent\":%d,\"start_ns\":%d,\
         \"end_ns\":%d,\"active_ns\":%d}\n"
        s.name s.pdu s.id
        (match s.parent with Some p -> p.id | None -> 0)
        s.start_ns s.end_ns s.active_ns)
    (List.rev !kept);
  close_out oc

(* What a repetition run in a child process hands back to its parent. *)
type export = {
  e_totals : (string * int * int * int) list;
      (** name, calls, self ns, active ns *)
  e_kept : span list;  (** oldest first *)
  e_dropped : int;
}

let export () =
  {
    e_totals =
      Hashtbl.fold
        (fun name t acc -> (name, t.calls, t.self_ns, t.active) :: acc)
        totals [];
    e_kept = List.rev !kept;
    e_dropped = !n_dropped;
  }

(* Fold a child's export into this process's totals and kept spans. *)
let absorb e =
  List.iter
    (fun (name, calls, self_ns, active) ->
      add_total name ~calls ~self_ns ~active)
    e.e_totals;
  List.iter keep e.e_kept;
  n_dropped := !n_dropped + e.e_dropped

let kept_count () = !n_kept
let dropped_count () = !n_dropped
