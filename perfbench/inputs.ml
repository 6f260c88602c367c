(* Seeded workload inputs. Everything a run sends — message sizes, host
   pairs, incast senders, payload bytes — comes from here, so the same
   seed always yields the same inputs and the simulator never sees the
   seed itself.

   Sizes are stratified: a workload's PDUs cover its cell-count range
   evenly, block by block, and the seed shuffles the order within each
   block and picks the byte length inside each cell count. Total work
   per run is then nearly the same for every seed, so seed-to-seed spread
   in host time reflects the simulator, not a lucky draw of sizes. *)

type fabric = {
  streams : (int * int) array;  (** closed-loop (source, sink) host pairs *)
  incast_senders : int array;
  incast_dst : int;
}

type t = {
  workload : string;
  seed : int;
  rep : int;  (** which repetition of the run these inputs are for *)
  sizes : int array;  (** payload bytes of PDU [i] *)
  offsets : int array;  (** PDU [i]'s bytes start here in [pool] *)
  pool : bytes;  (** seeded random bytes every payload is cut from *)
  fabric : fabric option;  (** fabric1024's hosts *)
}

let workloads = [ "bulk_raw"; "store_uam"; "cellstorm"; "fabric1024" ]

let max_size = 5056
let inline_max = 40 (* Unet.Desc.inline_max: one cell after the trailer *)
let pool_size = 64 * 1024

(* PDUs per repetition, the fewest cells per PDU and the largest
   payload. A one-cell PDU is carried inline in its descriptor. *)
let shape = function
  | "bulk_raw" -> (2400, 2, max_size)
  | "store_uam" -> (400, 2, max_size)
  | "cellstorm" -> (32000, 1, inline_max)
  | "fabric1024" -> (600, 2, 2048)
  | w -> invalid_arg ("unknown workload " ^ w)

(* The 32x8x32 Clos of fabric1024: 16 closed-loop streams carry the
   first two thirds of the PDUs, round robin; 16 incast senders carry the
   rest, one PDU per wave. *)
let pods = 32
let spine = 8
let hosts_per_pod = 32
let n_streams = 16
let n_incast = 16
let stream_pdus t = Array.length t.sizes * 2 / 3

(* AAL5 cells for a payload: 8-byte trailer, 48-byte cell payloads *)
let cells_of_size size = (size + 8 + 47) / 48

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Byte lengths in blocks: each block holds every cell count from
   [min_cells] to [cells_of_size max_bytes] once, in seeded order, each a
   seeded length inside its cell count (the last, shorter block spreads
   its counts evenly). Every stretch of a run then has the same mix of
   sizes. *)
let stratified_sizes rng ~n ~min_cells ~max_bytes =
  let span = cells_of_size max_bytes - min_cells + 1 in
  let size_of c =
    let lo = max 1 (((c - 1) * 48) - 7) in
    let hi = min max_bytes ((c * 48) - 8) in
    lo + Random.State.int rng (hi - lo + 1)
  in
  let block b =
    let len = min span (n - (b * span)) in
    let counts = Array.init len (fun j -> min_cells + (j * span / len)) in
    shuffle rng counts;
    Array.map size_of counts
  in
  Array.concat (List.init ((n + span - 1) / span) block)

let fabric_hosts rng =
  (* the incast target, and one sender in each of 16 other pods *)
  let dst_pod = Random.State.int rng pods in
  let in_pod pod () =
    (pod * hosts_per_pod) + Random.State.int rng hosts_per_pod
  in
  let incast_dst = in_pod dst_pod () in
  let other_pods =
    Array.of_list (List.filter (( <> ) dst_pod) (List.init pods Fun.id))
  in
  shuffle rng other_pods;
  let incast_senders =
    Array.init n_incast (fun i -> in_pod other_pods.(i) ())
  in
  let used = Hashtbl.create 64 in
  Array.iter (fun h -> Hashtbl.replace used h ()) incast_senders;
  Hashtbl.replace used incast_dst ();
  let rec fresh pick =
    let h = pick () in
    if Hashtbl.mem used h then fresh pick
    else begin
      Hashtbl.replace used h ();
      h
    end
  in
  let other_pod pod = (pod + 1 + Random.State.int rng (pods - 1)) mod pods in
  (* cross-pod streams in pairs: both sources of a pair sit on one leaf,
     and the second destination is picked so the deterministic ECMP
     choice ((src + dst) mod spine) sends both up the same spine trunk,
     which the pair then shares *)
  let pair () =
    let sp = Random.State.int rng pods in
    let s1 = fresh (in_pod sp) in
    let s2 = fresh (in_pod sp) in
    let d1 = fresh (in_pod (other_pod sp)) in
    let trunk = (s1 + d1) mod spine in
    let d2 =
      fresh (fun () ->
          let base = other_pod sp * hosts_per_pod in
          let o = (((trunk - s2 - base) mod spine) + spine) mod spine in
          base + o + (spine * Random.State.int rng (hosts_per_pod / spine)))
    in
    [| (s1, d1); (s2, d2) |]
  in
  let streams = Array.concat (List.init (n_streams / 2) (fun _ -> pair ())) in
  { streams; incast_senders; incast_dst }

(* The inputs of repetition [rep] of a run with [seed]: every repetition
   draws its own, so a run samples the input distribution instead of
   timing one draw over and over. *)
let make ?pdus workload ~seed ~rep =
  let default_pdus, min_cells, max_bytes = shape workload in
  let n = Option.value pdus ~default:default_pdus in
  let rng = Random.State.make [| seed; rep; Hashtbl.hash workload |] in
  let pool =
    Bytes.init pool_size (fun _ -> Char.chr (Random.State.int rng 256))
  in
  let sizes = stratified_sizes rng ~n ~min_cells ~max_bytes in
  let offsets =
    Array.map (fun s -> Random.State.int rng (pool_size - s + 1)) sizes
  in
  let fabric =
    if workload = "fabric1024" then Some (fabric_hosts rng) else None
  in
  { workload; seed; rep; sizes; offsets; pool; fabric }

let payload t i = Bytes.sub t.pool t.offsets.(i) t.sizes.(i)
let cells t = Array.fold_left (fun acc s -> acc + cells_of_size s) 0 t.sizes
let hosts t = if t.workload = "fabric1024" then pods * hosts_per_pod else 2

let digest t =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (t.sizes, t.offsets, t.fabric) []
       ^ Bytes.to_string t.pool))
