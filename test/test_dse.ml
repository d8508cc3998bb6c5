(** Tests for the design-space exploration tasks: thread-count sweep,
    blocksize sweep, and the unroll-until-overmap loop of the paper's
    Fig. 2. *)

let omp_design () =
  Feat_fixtures.design ~target:Codegen.Design.Cpu_openmp ~device_id:"epyc7543"
    ()

let gpu_design device_id = Feat_fixtures.design ~device_id ()

let fpga_design device_id =
  Feat_fixtures.design ~target:Codegen.Design.Fpga_oneapi ~device_id ()

let threads_tests =
  [
    Alcotest.test_case "embarrassingly parallel picks max threads" `Quick
      (fun () ->
        let f = Feat_fixtures.make () in
        let r = Dse.Threads_dse.run (omp_design ()) f in
        Alcotest.(check int) "32 threads" 32 r.chosen_threads);
    Alcotest.test_case "chosen point is optimal over the sweep" `Quick
      (fun () ->
        let f = Feat_fixtures.make () in
        let r = Dse.Threads_dse.run (omp_design ()) f in
        let best_seconds =
          List.fold_left (fun acc (s : Dse.Threads_dse.step) ->
              Float.min acc s.seconds)
            infinity r.steps
        in
        let chosen =
          List.find
            (fun (s : Dse.Threads_dse.step) -> s.threads = r.chosen_threads)
            r.steps
        in
        Alcotest.(check (float 1e-12)) "optimal" best_seconds chosen.seconds);
    Alcotest.test_case "design knob updated" `Quick (fun () ->
        let f = Feat_fixtures.make () in
        let r = Dse.Threads_dse.run (omp_design ()) f in
        Alcotest.(check int) "knob" 32 r.design.num_threads);
    Alcotest.test_case "sweep includes 1 and the core count" `Quick (fun () ->
        let f = Feat_fixtures.make () in
        let r = Dse.Threads_dse.run (omp_design ()) f in
        let threads = List.map (fun (s : Dse.Threads_dse.step) -> s.threads) r.steps in
        Alcotest.(check bool) "has 1" true (List.mem 1 threads);
        Alcotest.(check bool) "has 32" true (List.mem 32 threads));
  ]

let blocksize_tests =
  [
    Alcotest.test_case "chosen blocksize is optimal over the sweep" `Quick
      (fun () ->
        let f = Feat_fixtures.make () in
        let r = Dse.Blocksize_dse.run (gpu_design "rtx2080ti") f in
        let feasible =
          List.filter (fun (s : Dse.Blocksize_dse.step) -> s.feasible) r.steps
        in
        let best =
          List.fold_left (fun acc (s : Dse.Blocksize_dse.step) ->
              Float.min acc s.seconds)
            infinity feasible
        in
        let chosen =
          List.find
            (fun (s : Dse.Blocksize_dse.step) ->
              s.blocksize = r.chosen_blocksize)
            r.steps
        in
        Alcotest.(check (float 1e-12)) "optimal" best chosen.seconds);
    Alcotest.test_case "register-heavy kernels avoid big blocks" `Quick
      (fun () ->
        let f = Feat_fixtures.make ~regs:255 () in
        let r = Dse.Blocksize_dse.run (gpu_design "rtx2080ti") f in
        (* 255 regs * 512 threads would blow the register file *)
        Alcotest.(check bool) "small block chosen" true
          (r.chosen_blocksize <= 256));
    Alcotest.test_case "devices can choose different blocksizes" `Quick
      (fun () ->
        (* not asserting inequality (they may agree), asserting both valid *)
        let f = Feat_fixtures.make ~regs:128 () in
        let r1 = Dse.Blocksize_dse.run (gpu_design "gtx1080ti") f in
        let r2 = Dse.Blocksize_dse.run (gpu_design "rtx2080ti") f in
        Alcotest.(check bool) "1080 valid" true (r1.chosen_blocksize >= 32);
        Alcotest.(check bool) "2080 valid" true (r2.chosen_blocksize >= 32));
    Alcotest.test_case "sweep is bounded by the device maximum" `Quick
      (fun () ->
        let f = Feat_fixtures.make () in
        let r = Dse.Blocksize_dse.run (gpu_design "rtx2080ti") f in
        List.iter
          (fun (s : Dse.Blocksize_dse.step) ->
            Alcotest.(check bool) "<= 1024" true (s.blocksize <= 1024))
          r.steps);
  ]

let unroll_tests =
  [
    Alcotest.test_case "doubles until overmap and keeps the last fit" `Quick
      (fun () ->
        let f = Feat_fixtures.make () in
        let r = Dse.Unroll_dse.run (fpga_design "stratix10") f in
        Alcotest.(check bool) "synthesizable" true r.synthesizable;
        (* last step overmapped, chosen factor is half of it *)
        let last = List.nth r.steps (List.length r.steps - 1) in
        Alcotest.(check bool) "stopped on overmap" true last.overmapped;
        Alcotest.(check int) "chosen is previous power of two"
          (last.factor / 2) r.chosen_factor);
    Alcotest.test_case "factors double like Fig. 2" `Quick (fun () ->
        let f = Feat_fixtures.make () in
        let r = Dse.Unroll_dse.run (fpga_design "stratix10") f in
        let factors = List.map (fun (s : Dse.Unroll_dse.step) -> s.factor) r.steps in
        let rec check_doubling = function
          | a :: b :: rest ->
              Alcotest.(check int) "doubles" (a * 2) b;
              check_doubling (b :: rest)
          | _ -> ()
        in
        check_doubling factors);
    Alcotest.test_case "bigger device sustains a bigger factor" `Quick
      (fun () ->
        let f = Feat_fixtures.make () in
        let ra = Dse.Unroll_dse.run (fpga_design "arria10") f in
        let rs = Dse.Unroll_dse.run (fpga_design "stratix10") f in
        Alcotest.(check bool) "S10 >= A10" true
          (rs.chosen_factor >= ra.chosen_factor));
    Alcotest.test_case "design annotated with chosen factor" `Quick (fun () ->
        let f = Feat_fixtures.make () in
        let r = Dse.Unroll_dse.run (fpga_design "stratix10") f in
        Alcotest.(check int) "knob" r.chosen_factor r.design.unroll_factor);
    Alcotest.test_case "monster kernel is unsynthesizable" `Quick (fun () ->
        let f =
          Feat_fixtures.make ~locals:80
            ~ops_per_iter:(Feat_fixtures.ops ~exp_log:60.0 ~fdiv:30.0 ())
            ()
        in
        let r = Dse.Unroll_dse.run (fpga_design "arria10") f in
        Alcotest.(check bool) "not synthesizable" false r.synthesizable;
        Alcotest.(check bool) "design flagged" false
          r.design.synthesizable);
    Alcotest.test_case "90-100% single-pipeline design still ships" `Quick
      (fun () ->
        (* dense enough that u=1 is over 90% but under 100% on the A10 *)
        let f =
          Feat_fixtures.make ~locals:22
            ~ops_per_iter:
              (Feat_fixtures.ops ~fadd:380.0 ~fmul:320.0 ~fdiv:8.0
                 ~loads:120.0 ())
            ()
        in
        let r = Dse.Unroll_dse.run (fpga_design "arria10") f in
        let first = List.hd r.steps in
        if first.overmapped && first.utilization <= 1.0 then (
          Alcotest.(check bool) "synthesizable at factor 1" true
            r.synthesizable;
          Alcotest.(check int) "factor 1" 1 r.chosen_factor)
        else Alcotest.(check bool) "fixture should be 90-100%" false true);
  ]

(* A sweep-memo hit must rebuild from the incoming design exactly what
   the sweep itself returns, and both must equal the unmemoized sweep,
   field by field: [view] gives (design, chosen knob, steps, decision). *)
let memo_case name ~stage run view =
  Alcotest.test_case name `Quick (fun () ->
      let counter k =
        Flow_obs.Metrics.counter_value Flow_obs.Metrics.global
          (Printf.sprintf "memo_dse_%s_%s" stage k)
      in
      Dse.Sweep_memo.clear ();
      let h0 = counter "hits" and m0 = counter "misses" in
      let miss = view (run ()) in
      let hit = view (run ()) in
      Alcotest.(check int) "one miss" 1 (counter "misses" - m0);
      Alcotest.(check int) "one hit" 1 (counter "hits" - h0);
      Dse.Sweep_memo.set_enabled false;
      let off =
        Fun.protect ~finally:(fun () -> Dse.Sweep_memo.set_enabled true)
          (fun () -> view (run ()))
      in
      let (design' : Codegen.Design.t), knob', steps', decision' = miss in
      List.iter
        (fun (what, (design, knob, steps, decision)) ->
          Alcotest.(check bool) (what ^ ": design") true (design = design');
          Alcotest.(check string) (what ^ ": chosen knob") knob' knob;
          Alcotest.(check bool) (what ^ ": steps") true (steps = steps');
          Alcotest.(check bool) (what ^ ": decision") true (decision = decision'))
        [ ("hit", hit); ("memo off", off) ])

let unroll_view (r : Dse.Unroll_dse.result) =
  (r.design, Printf.sprintf "%d/%b" r.chosen_factor r.synthesizable, r.steps, r.decision)

let memo_tests =
  let f = Feat_fixtures.make () in
  (* one incoming design per case: every run sees the same statement ids *)
  let unroll d f = let d = fpga_design d in fun () -> Dse.Unroll_dse.run d f in
  let monster =
    Feat_fixtures.make ~locals:80
      ~ops_per_iter:(Feat_fixtures.ops ~exp_log:60.0 ~fdiv:30.0 ()) ()
  in
  [
    memo_case "unroll hit == miss == memo off" ~stage:"unroll"
      (unroll "stratix10" f) unroll_view;
    memo_case "unsynthesizable unroll hit == miss == memo off" ~stage:"unroll"
      (unroll "arria10" monster) unroll_view;
    memo_case "blocksize hit == miss == memo off" ~stage:"blocksize"
      (let d = gpu_design "rtx2080ti" in fun () -> Dse.Blocksize_dse.run d f)
      (fun (r : Dse.Blocksize_dse.result) ->
        (r.design, string_of_int r.chosen_blocksize, r.steps, r.decision));
    memo_case "threads hit == miss == memo off" ~stage:"threads"
      (let d = omp_design () in fun () -> Dse.Threads_dse.run d f)
      (fun (r : Dse.Threads_dse.result) ->
        (r.design, string_of_int r.chosen_threads, r.steps, r.decision));
  ]

let () =
  Alcotest.run "dse"
    [
      ("threads", threads_tests);
      ("blocksize", blocksize_tests);
      ("unroll", unroll_tests);
      ("memo", memo_tests);
    ]
