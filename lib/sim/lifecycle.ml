(* Whole-node crash/restart injection (DESIGN.md §13).

   A [t] owns the liveness state of every node in one simulation: a node
   is either alive or down-until-a-known-cycle.  Crashes come from an
   explicit schedule and/or a seeded per-window draw; each crash fires
   the registered [on_crash] hooks, schedules a detection event (the
   survivors' re-homing point) and a restart event (the crashed node's
   rejoin point), and the restart wakes every fiber parked on the node's
   gate.  The module never touches protocol state itself — the DSM
   engines register hooks — and a simulation without a policy attached
   never constructs a [t] at all, so crash-free runs stay byte-identical
   to the pre-lifecycle baseline. *)

type policy = {
  crashes : (int * int) list; (* (node, cycle) scheduled crashes *)
  crash_rate : float; (* per-node crash probability per window *)
  crash_seed : int;
  outage_cycles : int; (* crash -> restart *)
  detect_cycles : int; (* crash -> survivors notice (re-homing) *)
  ckpt_interval : int; (* 0 = no periodic checkpoints *)
  max_crashes : int; (* cap on randomly drawn crashes *)
}

let none =
  {
    crashes = [];
    crash_rate = 0.0;
    crash_seed = 0;
    outage_cycles = 1_000_000;
    detect_cycles = 200_000;
    ckpt_interval = 0;
    max_crashes = 4;
  }

let active p = p.crashes <> [] || p.crash_rate > 0.0

(* Window for the random crash draw: one draw per node per window. *)
let draw_window = 1_000_000

type t = {
  eng : Engine.t;
  policy : policy;
  nodes : int;
  down_until : int array; (* 0 = alive, else the restart cycle *)
  gates : Waitq.t array; (* app fibers of a down node park here *)
  prng : Prng.t;
  mutable drawn : int; (* randomly drawn crashes so far *)
  mutable on_crash : (node:int -> at:int -> unit) list;
  mutable on_detect : (node:int -> at:int -> unit) list;
  mutable on_restart : (node:int -> at:int -> unit) list;
  mutable on_ckpt : (at:int -> unit) list;
  c_crashes : int ref;
  c_restarts : int ref;
  c_downtime : int ref;
}

let create eng counters policy ~nodes =
  List.iter
    (fun (node, _) ->
      if node < 0 || node >= nodes then
        invalid_arg
          (Printf.sprintf
             "crash node %d out of range: this machine has nodes 0..%d" node
             (nodes - 1)))
    policy.crashes;
  {
    eng;
    policy;
    nodes;
    down_until = Array.make nodes 0;
    gates = Array.init nodes (fun _ -> Waitq.create eng);
    prng = Prng.create ~seed:(0xC4A5_11FE lxor policy.crash_seed);
    drawn = 0;
    on_crash = [];
    on_detect = [];
    on_restart = [];
    on_ckpt = [];
    c_crashes = Shm_stats.Counters.cell counters "sim.crashes";
    c_restarts = Shm_stats.Counters.cell counters "sim.restarts";
    c_downtime = Shm_stats.Counters.cell counters "sim.downtime";
  }

let nodes t = t.nodes
let alive t node = t.down_until.(node) = 0
let down_until t node = t.down_until.(node)
let on_crash t f = t.on_crash <- t.on_crash @ [ f ]
let on_detect t f = t.on_detect <- t.on_detect @ [ f ]
let on_restart t f = t.on_restart <- t.on_restart @ [ f ]
let on_ckpt t f = t.on_ckpt <- t.on_ckpt @ [ f ]

(* Park the calling fiber until the node restarts.  The check-then-wait
   is safe because the restart wake runs as a scheduled engine callback:
   a fiber that observes the node down is guaranteed to be in the queue
   before the wake at [down_until] fires (equal-time events run in
   insertion order, and the crash that marked the node down was
   scheduled before this fiber could observe it). *)
let gate t fiber ~node =
  if t.down_until.(node) <> 0 then Waitq.wait fiber t.gates.(node)

let restart t node ~at =
  if t.down_until.(node) <> 0 then begin
    t.down_until.(node) <- 0;
    incr t.c_restarts;
    List.iter (fun f -> f ~node ~at) t.on_restart;
    ignore (Waitq.wake_all t.gates.(node) ~at)
  end

let detect t node ~at =
  (* Guard: the node may already have restarted under a short outage. *)
  if t.down_until.(node) <> 0 then
    List.iter (fun f -> f ~node ~at) t.on_detect

let crash t node ~at =
  if
    node >= 0 && node < t.nodes
    && t.down_until.(node) = 0
    && Engine.live_fibers t.eng > 0
  then begin
    let until = at + t.policy.outage_cycles in
    t.down_until.(node) <- until;
    incr t.c_crashes;
    t.c_downtime := !(t.c_downtime) + t.policy.outage_cycles;
    List.iter (fun f -> f ~node ~at) t.on_crash;
    Engine.schedule t.eng ~at:(at + t.policy.detect_cycles) (fun () ->
        detect t node ~at:(at + t.policy.detect_cycles));
    Engine.schedule t.eng ~at:until (fun () -> restart t node ~at:until)
  end

(* One crash draw per node per window.  The recurring event stops
   rescheduling once every non-daemon fiber has finished, so a run's
   event queue drains and [Engine.run] terminates. *)
let rec draw_tick t ~at =
  if Engine.live_fibers t.eng > 0 then begin
    for node = 0 to t.nodes - 1 do
      if
        t.drawn < t.policy.max_crashes
        && t.down_until.(node) = 0
        && Prng.float t.prng 1.0 < t.policy.crash_rate
      then begin
        t.drawn <- t.drawn + 1;
        crash t node ~at
      end
    done;
    Engine.schedule t.eng ~at:(at + draw_window) (fun () ->
        draw_tick t ~at:(at + draw_window))
  end

let rec ckpt_tick t ~at =
  if Engine.live_fibers t.eng > 0 then begin
    List.iter (fun f -> f ~at) t.on_ckpt;
    Engine.schedule t.eng ~at:(at + t.policy.ckpt_interval) (fun () ->
        ckpt_tick t ~at:(at + t.policy.ckpt_interval))
  end

let start t =
  List.iter
    (fun (node, at) -> Engine.schedule t.eng ~at (fun () -> crash t node ~at))
    t.policy.crashes;
  if t.policy.crash_rate > 0.0 then
    Engine.schedule t.eng ~at:draw_window (fun () ->
        draw_tick t ~at:draw_window);
  if t.policy.ckpt_interval > 0 then
    Engine.schedule t.eng ~at:t.policy.ckpt_interval (fun () ->
        ckpt_tick t ~at:t.policy.ckpt_interval)

let note t =
  let b = Buffer.create 64 in
  Array.iteri
    (fun node until ->
      if until <> 0 then
        Buffer.add_string b
          (Printf.sprintf "%snode %d crashed (down until cycle %d)"
             (if Buffer.length b = 0 then "" else "; ")
             node until))
    t.down_until;
  if Buffer.length b = 0 then "all nodes alive" else Buffer.contents b
