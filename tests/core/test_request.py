"""Unit tests for protocol messages."""

from repro.core.request import Fragment, ReplyHeader, RequestHeader


class TestMessageSizes:
    def test_request_header_nbytes_grows_with_payload(self):
        small = RequestHeader((1,), "o", "f", "spmd", 0, 1, (), b"")
        big = RequestHeader((1,), "o", "f", "spmd", 0, 1, (), b"x" * 100)
        assert big.nbytes() == small.nbytes() + 100

    def test_fragment_nbytes_includes_intervals(self):
        f1 = Fragment((1,), "v", 0, ((0, 5),), b"12345")
        f2 = Fragment((1,), "v", 0, ((0, 2), (3, 6)), b"12345")
        assert f2.nbytes() > f1.nbytes()

    def test_reply_nbytes_accounts_for_exception(self):
        ok = ReplyHeader((1,), "ok", b"")
        exc = ReplyHeader((1,), "user_exception", b"",
                          exception=("IDL:x:1.0", b"payload"))
        assert exc.nbytes() > ok.nbytes()
        sys_exc = ReplyHeader((1,), "system_exception", b"",
                              exception="it broke")
        assert sys_exc.nbytes() > ok.nbytes()

    def test_layouts_count_by_entry_not_by_content(self):
        """A header carries layouts as values; its size counts one entry
        per layout whatever the layout holds."""
        from repro.core.distribution import Distribution

        def header(dist, spec):
            return RequestHeader((1,), "o", "f", "spmd", 0, 2, (), b"",
                                 dseq_args={"v": dist},
                                 out_dists={"w": spec})

        small = header(Distribution.block(4, 2), "CYCLIC")
        big = header(Distribution.cyclic(10**4, 2), (3.0, 1.0))
        assert small.nbytes() == big.nbytes() == header(
            Distribution.block(4, 2), "BLOCK").nbytes()
        assert (ReplyHeader((1,), "ok", dseq_outs={"w": (
            Distribution.block(4, 3), Distribution.block(4, 2))}).nbytes()
            == ReplyHeader((1,), "ok").nbytes() + 24)
