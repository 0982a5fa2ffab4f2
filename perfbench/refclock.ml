(* A reference clock for host speed.

   On a shared host the same binary runs up to twice as fast in some
   minutes as in others, in stretches of seconds to minutes, so host CPU
   time alone spreads more between runs than any bound could absorb. The
   reference clock measures that speed while the workload runs: the
   workload calls [tick] from a pass-through link hook on every datagram,
   and once [interval] CPU seconds have passed since the last chunk, the
   tick runs one fixed chunk of work owned by the benchmark (SHA-256
   message schedules and rounds over a preallocated block: integer work
   like the simulator's hot path, which is mostly hashing) and times it.
   Host times are then scaled to a host that runs the chunk in
   [nominal_chunk_s].

   The chunk allocates nothing and touches no simulator state, so
   allocation, heap and virtual figures stay exact. (A timer signal would
   be simpler, but the runtime's signal polling moved the peak heap by a
   few kilobytes in some runs.) Its own CPU time is subtracted from the
   workload's. *)

let interval = 0.04

(* Datagrams between two looks at the CPU clock, which costs a system
   call. *)
let check_every = 32
let rounds_per_chunk = 2000

(* The chunk's CPU time on the development host at its usual (contended)
   speed: it only sets the scale of the reported figures. *)
let nominal_chunk_s = 0.0025

let k = Array.init 64 (fun i -> ((i * 0x9E3779B1) + 0x428a2f98) land 0xffffffff)
let w = Array.make 64 0
let st = Array.make 8 1
let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land 0xffffffff

let round () =
  for i = 0 to 15 do
    w.(i) <- (st.(i land 7) + i) land 0xffffffff
  done;
  for i = 16 to 63 do
    let a = w.(i - 15) and b = w.(i - 2) in
    let s0 = rotr a 7 lxor rotr a 18 lxor (a lsr 3) in
    let s1 = rotr b 17 lxor rotr b 19 lxor (b lsr 10) in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land 0xffffffff
  done;
  let a = ref st.(0) and b = ref st.(1) and c = ref st.(2) and d = ref st.(3) in
  let e = ref st.(4) and f = ref st.(5) and g = ref st.(6) and h = ref st.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = !e land !f lxor (lnot !e land !g) in
    let t1 = (!h + s1 + ch + k.(i) + w.(i)) land 0xffffffff in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = !a land !b lxor (!a land !c) lxor (!b land !c) in
    h := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land 0xffffffff;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + s0 + maj) land 0xffffffff
  done;
  st.(0) <- (st.(0) + !a) land 0xffffffff;
  st.(4) <- (st.(4) + !e) land 0xffffffff

(* [spent.(0)]: CPU seconds spent in chunks; a float array, so updating
   it allocates nothing. *)
let spent = [| 0.0 |]
let chunks = ref 0

let chunk () =
  let t0 = Sys.time () in
  for _ = 1 to rounds_per_chunk do
    round ()
  done;
  spent.(0) <- spent.(0) +. (Sys.time () -. t0);
  incr chunks

(* Process CPU seconds outside the chunks. *)
let cpu () = Sys.time () -. spent.(0)

let running = ref false
let countdown = ref 0
let next_at = [| 0.0 |]

let start () =
  running := true;
  next_at.(0) <- Sys.time () +. interval

let stop () = running := false

let tick () =
  if !running then begin
    decr countdown;
    if !countdown <= 0 then begin
      countdown := check_every;
      if Sys.time () >= next_at.(0) then begin
        chunk ();
        next_at.(0) <- Sys.time () +. interval
      end
    end
  end

(* Host speed relative to the nominal host (> 1 when slower), from every
   chunk run so far; 1 when none ran. *)
let slowdown () = if !chunks = 0 then 1.0 else spent.(0) /. float_of_int !chunks /. nominal_chunk_s
