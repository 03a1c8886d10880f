(* The wrapping engine.  Every counter a protocol callback touches is
   an [Atomic]: the SoA engine calls [send]/[receive] from its shard
   domains.  The adversary and the run bracket only ever run on the
   coordinating domain, so they use plain mutable fields. *)

type counter = { ns : int Atomic.t; calls : int Atomic.t; words : int Atomic.t }

let counter () =
  { ns = Atomic.make 0; calls = Atomic.make 0; words = Atomic.make 0 }

let clear c =
  Atomic.set c.ns 0;
  Atomic.set c.calls 0;
  Atomic.set c.words 0

let[@inline] add c ~ns ~words =
  ignore (Atomic.fetch_and_add c.ns ns);
  ignore (Atomic.fetch_and_add c.calls 1);
  ignore (Atomic.fetch_and_add c.words words)

exception Setup_reached

type t = {
  traced : bool;
  adversary : counter;
  send : counter;
  receive : counter;
  intent : counter;
  mutable stop_at_setup : bool;
  mutable entered_ns : int;
  mutable first_adversary_ns : int;
  mutable run_ns : int;
  mutable setup_ns : int;
  mutable run_minor_words : float;
  mutable first_adversary_words : float;
  mutable first_adversary_cpu : float;
  mutable after_setup_words : float;
  mutable after_setup_cpu : float;
  mutable rounds : int;
  mutable starts : int array;  (* adversary call times of the latest run *)
  mutable n_starts : int;
  mutable ended_ns : int;
}

let create ~traced =
  {
    traced;
    adversary = counter ();
    send = counter ();
    receive = counter ();
    intent = counter ();
    stop_at_setup = false;
    entered_ns = 0;
    first_adversary_ns = 0;
    run_ns = 0;
    setup_ns = 0;
    run_minor_words = 0.;
    first_adversary_words = 0.;
    first_adversary_cpu = 0.;
    after_setup_words = 0.;
    after_setup_cpu = 0.;
    rounds = 0;
    starts = Array.make 1024 0;
    n_starts = 0;
    ended_ns = 0;
  }

let reset t =
  List.iter clear [ t.adversary; t.send; t.receive; t.intent ];
  t.entered_ns <- 0;
  t.first_adversary_ns <- 0;
  t.run_ns <- 0;
  t.setup_ns <- 0;
  t.run_minor_words <- 0.;
  t.after_setup_words <- 0.;
  t.after_setup_cpu <- 0.;
  t.rounds <- 0;
  t.n_starts <- 0

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let first_adversary_ns t = t.first_adversary_ns
let set_stop_at_setup t b = t.stop_at_setup <- b

(* Called at the top of every adversary call, traced or not.  Each
   call starts a round; the first one also marks the end of engine
   setup. *)
let on_adversary t =
  let now = Clock.now_ns () in
  if t.n_starts = Array.length t.starts then begin
    let a = Array.make (2 * t.n_starts) 0 in
    Array.blit t.starts 0 a 0 t.n_starts;
    t.starts <- a
  end;
  t.starts.(t.n_starts) <- now;
  t.n_starts <- t.n_starts + 1;
  if t.first_adversary_ns = 0 then begin
    t.first_adversary_ns <- now;
    t.setup_ns <- t.setup_ns + (now - t.entered_ns);
    if t.stop_at_setup then raise Setup_reached;
    t.first_adversary_words <- Clock.alloc_words ();
    t.first_adversary_cpu <- cpu_s ()
  end

let[@inline] timed_adversary t f =
  on_adversary t;
  if not t.traced then f ()
  else begin
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    let g = f () in
    let t1 = Clock.now_ns () in
    add t.adversary ~ns:(t1 - t0)
      ~words:(int_of_float (Gc.minor_words () -. w0));
    g
  end

let bracket t run =
  t.entered_ns <- Clock.now_ns ();
  t.first_adversary_ns <- 0;
  t.n_starts <- 0;
  let w0 = Gc.minor_words () in
  let ((result : Engine.Run_result.t), _) as r = run () in
  t.ended_ns <- Clock.now_ns ();
  t.run_ns <- t.run_ns + (t.ended_ns - t.entered_ns);
  t.run_minor_words <- t.run_minor_words +. (Gc.minor_words () -. w0);
  if t.first_adversary_ns <> 0 then begin
    t.after_setup_words <-
      t.after_setup_words +. (Clock.alloc_words () -. t.first_adversary_words);
    t.after_setup_cpu <- t.after_setup_cpu +. (cpu_s () -. t.first_adversary_cpu)
  end;
  t.rounds <- t.rounds + result.Engine.Run_result.rounds;
  r

let wrap t (module E : Engine.Engine_sig.ENGINE) =
  let module W = struct
    let name = E.name

    module Unicast = struct
      let run (type s m)
          (module P : Engine.Runner_unicast.PROTOCOL
            with type state = s
             and type msg = m) ?init_prev ?obs ?faults ?prof ?on_graph
          ?target_progress ?stall_after ?cancel ~states
          ~(adversary : s Engine.Runner_unicast.adversary) ~max_rounds ~stop ()
          =
        let adversary ~round ~prev ~states ~traffic =
          timed_adversary t (fun () -> adversary ~round ~prev ~states ~traffic)
        in
        let protocol =
          if not t.traced then
            (module P : Engine.Runner_unicast.PROTOCOL
              with type state = s
               and type msg = m)
          else
            (module struct
              type state = s
              type msg = m

              let classify = P.classify
              let progress = P.progress

              let send st ~round ~neighbors =
                let w0 = Gc.minor_words () in
                let t0 = Clock.now_ns () in
                let r = P.send st ~round ~neighbors in
                let t1 = Clock.now_ns () in
                add t.send ~ns:(t1 - t0)
                  ~words:(int_of_float (Gc.minor_words () -. w0));
                r

              let receive st ~round ~neighbors ~inbox =
                let w0 = Gc.minor_words () in
                let t0 = Clock.now_ns () in
                let r = P.receive st ~round ~neighbors ~inbox in
                let t1 = Clock.now_ns () in
                add t.receive ~ns:(t1 - t0)
                  ~words:(int_of_float (Gc.minor_words () -. w0));
                r
            end : Engine.Runner_unicast.PROTOCOL
              with type state = s
               and type msg = m)
        in
        bracket t (fun () ->
            E.Unicast.run protocol ?init_prev ?obs ?faults ?prof ?on_graph
              ?target_progress ?stall_after ?cancel ~states ~adversary
              ~max_rounds ~stop ())
    end

    module Broadcast = struct
      let run (type s m)
          (module P : Engine.Runner_broadcast.PROTOCOL
            with type state = s
             and type msg = m) ?init_prev ?obs ?faults ?prof ?on_graph
          ?target_progress ?stall_after ?cancel ~states
          ~(adversary : (s, m) Engine.Runner_broadcast.adversary) ~max_rounds
          ~stop () =
        let adversary ~round ~prev ~states ~intents =
          timed_adversary t (fun () -> adversary ~round ~prev ~states ~intents)
        in
        let protocol =
          if not t.traced then
            (module P : Engine.Runner_broadcast.PROTOCOL
              with type state = s
               and type msg = m)
          else
            (module struct
              type state = s
              type msg = m

              let classify = P.classify
              let progress = P.progress

              (* Kept as is: an engine that runs the plane kernel makes
                 no protocol calls, and the wrapper must not hide the
                 capability from it. *)
              let plane = P.plane

              let intent st ~round =
                let w0 = Gc.minor_words () in
                let t0 = Clock.now_ns () in
                let r = P.intent st ~round in
                let t1 = Clock.now_ns () in
                add t.intent ~ns:(t1 - t0)
                  ~words:(int_of_float (Gc.minor_words () -. w0));
                r

              let receive st ~round ~inbox =
                let w0 = Gc.minor_words () in
                let t0 = Clock.now_ns () in
                let r = P.receive st ~round ~inbox in
                let t1 = Clock.now_ns () in
                add t.receive ~ns:(t1 - t0)
                  ~words:(int_of_float (Gc.minor_words () -. w0));
                r
            end : Engine.Runner_broadcast.PROTOCOL
              with type state = s
               and type msg = m)
        in
        bracket t (fun () ->
            E.Broadcast.run protocol ?init_prev ?obs ?faults ?prof ?on_graph
              ?target_progress ?stall_after ?cancel ~states ~adversary
              ~max_rounds ~stop ())
    end
  end in
  (module W : Engine.Engine_sig.ENGINE)

let round_latencies t =
  Array.init t.n_starts (fun i ->
      let next = if i + 1 < t.n_starts then t.starts.(i + 1) else t.ended_ns in
      Clock.seconds (next - t.starts.(i)))

type totals = { seconds : float; calls : int; mwords : float }

let totals c =
  {
    seconds = Clock.seconds (Atomic.get c.ns);
    calls = Atomic.get c.calls;
    mwords = float_of_int (Atomic.get c.words) /. 1e6;
  }

type summary = {
  adversary : totals;
  send : totals;
  receive : totals;
  intent : totals;
  run_s : float;  (** engine entry to return, summed over runs *)
  setup_s : float;  (** engine entry to first adversary call *)
  engine_self_s : float;  (** [run_s] minus the wrapped calls *)
  engine_mwords : float;  (** minor words of the run minus the wrapped calls *)
  words_after_setup : float;
      (** [minor + major - promoted] words from the first adversary call
          to return, on the coordinating domain *)
  cpu_after_setup_s : float;  (** process CPU time over the same span *)
  rounds : int;
}

let summary (t : t) =
  let adversary = totals t.adversary
  and send = totals t.send
  and receive = totals t.receive
  and intent = totals t.intent in
  let run_s = Clock.seconds t.run_ns in
  {
    adversary;
    send;
    receive;
    intent;
    run_s;
    setup_s = Clock.seconds t.setup_ns;
    engine_self_s =
      run_s -. adversary.seconds -. send.seconds -. receive.seconds
      -. intent.seconds;
    engine_mwords =
      (t.run_minor_words /. 1e6) -. adversary.mwords -. send.mwords
      -. receive.mwords -. intent.mwords;
    words_after_setup = t.after_setup_words;
    cpu_after_setup_s = t.after_setup_cpu;
    rounds = t.rounds;
  }
