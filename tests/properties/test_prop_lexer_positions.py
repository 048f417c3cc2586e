"""Property: every token's (line, column) points at its own source text,
whatever comments, newlines and multi-line literals come before it."""

from hypothesis import given, settings, strategies as st

from repro.sql import tokenize

#: Each piece lexes as exactly one token.
PIECES = (
    "select", "Foo", "_x1", "42", "1.5e3", ".5", "7.", "'it''s'",
    "'two\nlines'", '"Q""x"', '"a\nb"', "<>", "::", "(", ",", "-", "/", "*",
)
#: Each separator starts with whitespace, so no two pieces fuse.
SEPARATORS = (" ", "\n", "\t\n  ", " -- note\n", " /* x\ny */ ", "\r\n")


@given(
    st.lists(
        st.tuples(st.sampled_from(PIECES), st.sampled_from(SEPARATORS)),
        max_size=30,
    ),
    st.sampled_from(("", "\n", " /* lead */\n ")),
)
@settings(max_examples=200, deadline=None)
def test_token_positions_point_at_their_text(soup, lead):
    text, offsets = lead, []
    for piece, separator in soup:
        offsets.append(len(text))
        text += piece + separator
    tokens = tokenize(text)[:-1]
    assert len(tokens) == len(offsets)
    for token, offset, (piece, _) in zip(tokens, offsets, soup):
        line_start = text.rfind("\n", 0, offset) + 1
        assert (token.line, token.column) == (
            text.count("\n", 0, offset) + 1,
            offset - line_start + 1,
        ), (piece, token)
        assert text.startswith(piece, offset)
